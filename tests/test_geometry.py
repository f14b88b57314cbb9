import dataclasses
import itertools
import math
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxmse import cli, geometry, signals
from proxmse.errors import BoundNotValidError, NumericalError
from proxmse.geometry import McConfig
from proxmse.streams import stream


# Brute-force oracles (shared with the acceptance suite): discretize the
# subdifferential's free parameters and minimize ||g - lam*s||^2 directly,
# independent of the closed-form distance code.
from oracles import (
    brute_block,
    brute_lowrank_codim1,
    brute_sparse,
    brute_weighted,
    row_major_profile_eval,
    soft_tail_moment_quadrature,
    whole_chunk_estimates,
)


# ---------------------------------------------------------------------------
# Pointwise distance and projection
# ---------------------------------------------------------------------------

def test_sparse_distance_example():
    s = signals.SparseStructure(2, [0], [1.0])
    got = geometry.dist_sq_scaled_subdiff(s, [0.5, 2.0], 1.0)
    assert got == pytest.approx(1.25, abs=1e-12)
    assert got == pytest.approx(brute_sparse([0], [1.0], [0.5, 2.0], 1.0), abs=1e-6)


def test_distance_at_zero_scale_is_norm():
    rng = np.random.default_rng(0)
    for inst in (
        signals.make_sparse(12, 3, seed=1),
        signals.make_block_sparse(4, 3, 2, seed=1),
        signals.make_low_rank(3, 1, seed=1),
    ):
        g = rng.standard_normal(inst.ambient_dim)
        got = geometry.dist_sq_scaled_subdiff(inst.structure, g, 0.0)
        assert got == pytest.approx(float(g @ g), rel=1e-12)


def test_lowrank_distance_example():
    s = signals.LowRankStructure(2, 1, [[1.0], [0.0]], [[1.0], [0.0]])
    g = signals.as_vector(np.diag([3.0, 2.0]))
    got = geometry.dist_sq_scaled_subdiff(s, g, 1.0)
    assert got == pytest.approx(5.0, abs=1e-10)
    assert got == pytest.approx(brute_lowrank_codim1(s, g, 1.0, step=1e-3), abs=1e-5)


def test_distance_shape_mismatch():
    s = signals.SparseStructure(3, [0], [1.0])
    with pytest.raises(ValueError):
        geometry.dist_sq_scaled_subdiff(s, [1.0, 2.0], 1.0)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_pointwise_distance_rejects_non_finite_vector(value):
    for inst in (signals.make_sparse(10, 2, seed=1), signals.make_low_rank(4, 1, seed=1)):
        g = np.ones(inst.ambient_dim)
        g[3] = value
        for call in (geometry.dist_sq_scaled_subdiff, geometry.project_scaled_subdiff):
            with pytest.raises(ValueError, match="finite"):
                call(inst.structure, g, 1.0)


def test_projection_example():
    s = signals.SparseStructure(2, [0], [1.0])
    p = geometry.project_scaled_subdiff(s, [0.5, 2.0], 1.0)
    assert np.allclose(p, [1.0, 1.0])


def test_projection_of_member_point():
    s = signals.SparseStructure(4, [1, 2], [1.0, -1.0])
    lam = 0.7
    member = np.array([0.3, lam, -lam, -0.6]) * np.array([1, 1, 1, 1.0])
    member[0] = 0.5 * lam   # inside the off-support interval
    member[3] = -0.9 * lam
    p = geometry.project_scaled_subdiff(s, member, lam)
    assert np.allclose(p, member, atol=1e-12)


def test_projection_at_zero_scale():
    s = signals.SparseStructure(3, [0], [1.0])
    p = geometry.project_scaled_subdiff(s, [1.0, -2.0, 3.0], 0.0)
    assert np.allclose(p, 0.0)


def _projection_contract(s, g, lam):
    p = geometry.project_scaled_subdiff(s, g, lam)
    d2 = geometry.dist_sq_scaled_subdiff(s, g, lam)
    g = np.asarray(g, dtype=float)
    assert float((g - p) @ (g - p)) == pytest.approx(d2, abs=1e-10)
    return p


def test_projection_matches_distance_all_structures():
    rng = np.random.default_rng(42)
    region_of = np.array([0, 0, 0, 1, 1, 1, 1, 0, 1, 0])
    cases = [
        signals.make_sparse(10, 3, seed=2).structure,
        signals.make_weighted_sparse(10, 3, region_of, [0.5, 2.0], seed=2).structure,
        signals.make_block_sparse(5, 2, 2, seed=2).structure,
        signals.make_low_rank(4, 2, seed=2).structure,
    ]
    for s in cases:
        for lam in (0.0, 0.3, 1.0, 2.5):
            for _ in range(5):
                g = rng.standard_normal(s.ambient_dim)
                _projection_contract(s, g, lam)


def test_projection_membership_sparse():
    s = signals.SparseStructure(6, [1, 4], [1.0, -1.0])
    lam = 1.3
    rng = np.random.default_rng(3)
    g = 3 * rng.standard_normal(6)
    p = _projection_contract(s, g, lam)
    assert p[1] == pytest.approx(lam)
    assert p[4] == pytest.approx(-lam)
    off = [0, 2, 3, 5]
    assert np.all(np.abs(p[off]) <= lam + 1e-10)


def test_projection_membership_lowrank():
    inst = signals.make_low_rank(5, 2, seed=7)
    s = inst.structure
    lam = 0.8
    g = np.random.default_rng(5).standard_normal(25)
    p = _projection_contract(s, g, lam)
    pm = signals.as_matrix(p, 5)
    assert np.max(np.abs(s.u.T @ pm @ s.v - lam * np.eye(2))) < 1e-10
    off = (np.eye(5) - s.u @ s.u.T) @ pm @ (np.eye(5) - s.v @ s.v.T)
    assert np.max(np.linalg.svd(off, compute_uv=False)) <= lam + 1e-10


# ---------------------------------------------------------------------------
# Brute-force equivalence in small ambient dimension
# ---------------------------------------------------------------------------

def test_brute_force_sparse_dims_up_to_12():
    rng = np.random.default_rng(10)
    for n, k in [(2, 1), (5, 2), (8, 3), (12, 4)]:
        inst = signals.make_sparse(n, k, seed=n)
        s = inst.structure
        for lam in (0.4, 1.0, 1.7):
            g = rng.standard_normal(n) * 1.5
            got = geometry.dist_sq_scaled_subdiff(s, g, lam)
            ref = brute_sparse(s.support, s.signs, g, lam)
            assert got == pytest.approx(ref, abs=1e-6)


def test_brute_force_weighted():
    rng = np.random.default_rng(11)
    region_of = np.array([0, 1, 0, 1, 1, 0])
    inst = signals.make_weighted_sparse(6, 2, region_of, [0.5, 1.5], seed=3)
    s = inst.structure
    for lam in (0.5, 1.2):
        g = rng.standard_normal(6)
        got = geometry.dist_sq_scaled_subdiff(s, g, lam)
        assert got == pytest.approx(brute_weighted(s, g, lam), abs=1e-6)


def test_brute_force_block():
    rng = np.random.default_rng(12)
    inst = signals.make_block_sparse(3, 2, 1, seed=4)   # ambient dim 6
    s = inst.structure
    for lam in (0.5, 1.3):
        g = rng.standard_normal(6)
        got = geometry.dist_sq_scaled_subdiff(s, g, lam)
        assert got == pytest.approx(brute_block(s, g, lam), abs=1e-6)
    inst = signals.make_block_sparse(5, 1, 2, seed=4)   # b=1 reduces to l1
    s = inst.structure
    g = rng.standard_normal(5)
    got = geometry.dist_sq_scaled_subdiff(s, g, 0.9)
    assert got == pytest.approx(brute_block(s, g, 0.9), abs=1e-6)


def test_brute_force_lowrank():
    rng = np.random.default_rng(13)
    for d, r in [(2, 1), (3, 2)]:   # ambient dims 4 and 9, codimension-1 off part
        inst = signals.make_low_rank(d, r, seed=d)
        s = inst.structure
        for lam in (0.6, 1.1):
            g = rng.standard_normal(d * d)
            got = geometry.dist_sq_scaled_subdiff(s, g, lam)
            assert got == pytest.approx(brute_lowrank_codim1(s, g, lam), abs=1e-6)


def test_full_rank_subdifferential_is_singleton():
    inst = signals.make_low_rank(2, 2, seed=1)
    s = inst.structure
    g = np.random.default_rng(2).standard_normal(4)
    lam = 0.7
    got = geometry.dist_sq_scaled_subdiff(s, g, lam)
    ref = np.sum((signals.as_matrix(g, 2) - lam * s.u @ s.v.T) ** 2)
    assert got == pytest.approx(float(ref), rel=1e-12)


# ---------------------------------------------------------------------------
# Internal profile consistency (the vectorized MC path vs the direct formula)
# ---------------------------------------------------------------------------

def test_profile_matches_direct_distance():
    rng = np.random.default_rng(20)
    region_of = np.array([0, 0, 1, 1, 0, 1, 0, 1])
    cases = [
        signals.make_sparse(8, 3, seed=5).structure,
        signals.make_weighted_sparse(8, 2, region_of, [0.0, 1.4], seed=5).structure,
        signals.make_block_sparse(4, 2, 2, seed=5).structure,
        signals.make_low_rank(3, 1, seed=5).structure,
        signals.make_low_rank(3, 3, seed=5).structure,
    ]
    for s in cases:
        G = rng.standard_normal((6, s.ambient_dim))
        prof = geometry._sorted(s.profile(G))
        for lam in (0.0, 0.5, 1.9):
            vals = geometry._profile_eval(prof, lam)
            for i in range(6):
                p = geometry.project_scaled_subdiff(s, G[i], lam)
                direct = float((G[i] - p) @ (G[i] - p))
                assert vals[i] == pytest.approx(direct, rel=1e-9, abs=1e-9)
                assert geometry.dist_sq_scaled_subdiff(s, G[i], lam) == pytest.approx(
                    direct, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# Exact l1 curve and its quadrature validation
# ---------------------------------------------------------------------------

def test_soft_tail_moment_against_quadrature():
    # Relative, with no absolute floor: the moment is 3.9e-8 at lam = 5 and
    # 2.9e-25 at lam = 10, so an absolute 1e-8 would pass any value there.
    for lam in [0.0, 0.1, 0.5, 1.0, 1.48, 2.0, 2.537, 3.5, 5.0, 6.0, 8.0, 10.0]:
        closed = geometry.soft_tail_moment(lam)
        quad = soft_tail_moment_quadrature(lam)
        assert closed == pytest.approx(quad, rel=1e-10, abs=0.0)


def test_exact_l1_at_zero_is_ambient_dim():
    assert geometry.msd_lambda_exact_l1(500, 20, 0.0) == pytest.approx(500.0)
    assert geometry.msd_lambda_exact_l1(7, 7, 0.0) == pytest.approx(7 * 2.0 - 7.0)


def test_exact_l1_reference_window():
    lam = math.sqrt(2 * math.log(500 / 20))
    val = geometry.msd_lambda_exact_l1(500, 20, lam)
    assert 89.0 <= val <= (lam * lam + 3) * 20
    assert (lam * lam + 3) * 20 == pytest.approx(188.7, abs=0.1)


def test_exact_l1_small_case_by_quadrature():
    got = geometry.msd_lambda_exact_l1(2, 1, 1.0)
    ref = 1 * (1 + 1.0) + 1 * soft_tail_moment_quadrature(1.0)
    assert got == pytest.approx(ref, rel=1e-13, abs=0.0)


def test_msd_lambda_zero_scale_near_ambient_dim():
    inst = signals.make_block_sparse(10, 5, 3, seed=6)
    est = geometry.msd_lambda(inst.structure, 0.0, McConfig(samples=20_000, seed=3))
    assert abs(est.mean - 50.0) <= 3 * est.stderr


def test_msd_lambda_matches_exact_l1():
    inst = signals.make_sparse(500, 20, "unit", seed=1)
    est = geometry.msd_lambda(inst.structure, 2.0, McConfig(samples=40_000, seed=5))
    exact = geometry.msd_lambda_exact_l1(500, 20, 2.0)
    assert abs(est.mean - exact) <= 3 * est.stderr
    lam = math.sqrt(2 * math.log(25.0))
    est = geometry.msd_lambda(inst.structure, lam, McConfig(samples=40_000, seed=5))
    assert est.mean <= (lam * lam + 3) * 20


# ---------------------------------------------------------------------------
# Cone MSD, optimal scale, sandwich
# ---------------------------------------------------------------------------

def test_cone_dominated_by_every_scale():
    inst = signals.make_sparse(30, 4, seed=9)
    mc = McConfig(samples=5_000, seed=21)
    cone = geometry.msd_cone(inst.structure, mc)
    for lam in (0.5, 1.0, 1.5, 2.5):
        est = geometry.msd_lambda(inst.structure, lam, mc)
        # shared seeds: the dominance holds per sample, hence for the means
        assert cone.mean <= est.mean + 1e-8


def test_per_sample_dominance_and_convexity():
    rng = np.random.default_rng(30)
    for inst in (
        signals.make_sparse(15, 3, seed=2),
        signals.make_block_sparse(5, 3, 2, seed=2),
        signals.make_low_rank(4, 1, seed=2),
    ):
        s = inst.structure
        for _ in range(100):
            g = rng.standard_normal(s.ambient_dim)
            l1, l2 = sorted(rng.uniform(0.0, 3.0, size=2))
            d1 = math.sqrt(geometry.dist_sq_scaled_subdiff(s, g, l1))
            d2 = math.sqrt(geometry.dist_sq_scaled_subdiff(s, g, l2))
            dm = math.sqrt(geometry.dist_sq_scaled_subdiff(s, g, (l1 + l2) / 2))
            assert dm <= (d1 + d2) / 2 + 1e-10


def test_sandwich_chain():
    inst = signals.make_sparse(60, 6, seed=3)
    mc = McConfig(samples=20_000, seed=17)
    cone = geometry.msd_cone(inst.structure, mc)
    lam_star, opt = geometry.optimal_lambda(inst.structure, mc)
    gc = geometry.geometry_constants(inst.structure)
    gap = 2 * gc.subgradient_radius / gc.sphere_max_value
    band = 3 * (cone.stderr + opt.stderr)
    assert cone.mean <= opt.mean + band
    assert opt.mean <= cone.mean + gap + band


def test_optimal_lambda_dense_case_closed_form():
    # k = n: the subdifferential is the single sign vector, so the MC average
    # is an exact quadratic in lam; three curve points pin it down.
    inst = signals.make_sparse(9, 9, seed=13)
    mc = McConfig(samples=4_000, seed=29)
    lam_star, est = geometry.optimal_lambda(inst.structure, mc)
    e0, e1, e2 = geometry.msd_lambda_curve(inst.structure, [0.0, 1.0, 2.0], mc)
    # fit q(lam) = a*lam^2 + b*lam + c through the three shared-sample points
    a = (e2.mean - 2 * e1.mean + e0.mean) / 2
    b = e1.mean - e0.mean - a
    closed = max(0.0, -b / (2 * a))
    assert a == pytest.approx(9.0, rel=1e-9)
    assert lam_star == pytest.approx(closed, rel=1e-9)


class _PoisonedStream:
    """A chunk stream whose draw holds ``value`` at one (row, column) of the
    chunk, in whatever row blocks the chunk is drawn."""

    def __init__(self, rng, row, col, value):
        self._rng, self._row, self._col, self._value = rng, row, col, value

    def standard_normal(self, *, out):
        self._rng.standard_normal(out=out)
        if 0 <= self._row < out.shape[0]:
            out[self._row, self._col] = self._value
        self._row -= out.shape[0]  # the row's offset from the next block
        return out


def test_non_finite_profile_surfaces_with_index(monkeypatch):
    # sample 5 of the second 32-sample chunk is sample 37 overall; the bad
    # draw sits on the support (c0, c1) or off it (a clip threshold nu), or
    # in a matrix whose complement part LAPACK would refuse.
    # With TILE = 1 every row is drawn and profiled on its own.
    sparse = signals.make_sparse(10, 2, seed=1).structure
    lowrank = signals.make_low_rank(4, 1, seed=1).structure
    cases = [(sparse, int(sparse.support[0])),
             (sparse, int(np.setdiff1d(np.arange(10), sparse.support)[0])),
             (lowrank, 0), (lowrank, 11)]
    monkeypatch.setattr(geometry, "CHUNK", 32)
    for tile in (geometry.TILE, 1):
        monkeypatch.setattr(geometry, "TILE", tile)
        for value in (np.nan, np.inf):
            for s, col in cases:
                monkeypatch.setattr(
                    geometry, "stream",
                    lambda seed, ci, col=col, value=value: _PoisonedStream(
                        stream(seed, ci), 5 if ci == 1 else 99, col, value))
                for estimator in (geometry.msd_cone, geometry.optimal_lambda,
                                  lambda s, mc: geometry.msd_lambda(s, 1.0, mc)):
                    # the low-rank profile of a non-finite draw warns "invalid value"
                    with (pytest.raises(NumericalError) as exc_info,
                          np.errstate(invalid="ignore")):
                        estimator(s, McConfig(samples=64, seed=1))
                    assert exc_info.value.index == 37


def _tiled_structure(kind: str, seed: int):
    """Structures with at least 8 clip thresholds, where numpy would sum a lone column pairwise."""
    if kind == "sparse":
        return signals.make_sparse(40, 4, seed=seed).structure
    if kind == "weighted":
        rng = np.random.default_rng(seed)
        return signals.make_weighted_sparse(
            40, 4, rng.integers(0, 3, size=40), rng.uniform(0.5, 2.0, size=3), seed=seed).structure
    if kind == "block":
        return signals.make_block_sparse(14, 2, 3, seed=seed).structure
    return signals.make_low_rank(12, 2, seed=seed).structure


# (samples, chunk): one tile, chunks of several tiles, chunks that end in a
# one-row tile, a one-row final chunk, one-row chunks, and chunks long enough
# that adding the pooled sums per tile would round them differently from per
# chunk
TILE_LAYOUTS = [(5, 4096), (2, 4096), (37, 16), (27, 13), (33, 16), (6, 1), (300, 64)]


@settings(max_examples=16, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["sparse", "weighted", "block", "lowrank"]),
       seed=st.integers(0, 2**20))
def test_row_tiles_match_whole_chunks(kind, seed):
    # The curve, the cone and a one-chunk optimum keep every bit of the
    # whole-chunk oracle. A multi-chunk optimum comes from the bracket, whose
    # sums round differently from the oracle's pooled Newton: it matches the
    # oracle to a relative 1e-12, and itself bit for bit across tilings.
    s = _tiled_structure(kind, seed)
    lams = [0.0, 0.7, 1.5, 3.0]
    for samples, chunk in TILE_LAYOUTS:
        mc = McConfig(samples=samples, seed=seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "CHUNK", chunk)
            curve, cone, (_, tuned) = whole_chunk_estimates(s, lams, mc)
            optima = []
            for rows in (1, 4, 5, 7, 8):
                mp.setattr(geometry, "TILE", rows * s.ambient_dim)
                got = (geometry.msd_lambda_curve(s, lams, mc), geometry.msd_cone(s, mc),
                       geometry.optimal_lambda(s, mc))
                one_pass = geometry.estimate(s, mc, lams, cone=True, optimal=True)
                assert got[:2] == (curve, cone), (samples, chunk, rows)
                assert (one_pass.curve, one_pass.cone) == (curve, cone), (samples, chunk, rows)
                assert got[2] == (one_pass.optimal.lam, one_pass.optimal), (samples, chunk, rows)
                optima.append(one_pass.optimal)
        assert optima == [optima[0]] * len(optima), (samples, chunk)
        if samples <= chunk:
            assert optima[0] == tuned, (samples, chunk)
        else:
            _assert_close_estimate(optima[0], tuned)


def _assert_close_estimate(got, want, rel=1e-12):
    assert got.samples == want.samples
    for field in ("lam", "mean", "stderr"):
        assert getattr(got, field) == pytest.approx(getattr(want, field), rel=rel, abs=1e-300), \
            field


@pytest.mark.parametrize("kind", ["sparse", "weighted", "block", "lowrank"])
def test_estimate_subsets_match_the_estimators(monkeypatch, kind):
    # each field is what its own estimator gives, whatever else the pass computes
    s = _tiled_structure(kind, 3)
    lams = [0.0, 1.5]
    monkeypatch.setattr(geometry, "CHUNK", 64)
    mc = McConfig(samples=300, seed=3)
    curve, cone, (_, tuned) = whole_chunk_estimates(s, lams, mc)
    assert geometry.msd_lambda(s, lams[1], mc) == curve[1]
    _, optimal = geometry.optimal_lambda(s, mc)
    _assert_close_estimate(optimal, tuned)
    for use_lams, use_cone, use_optimal in itertools.product((False, True), repeat=3):
        if not (use_lams or use_cone or use_optimal):
            with pytest.raises(ValueError):
                geometry.estimate(s, mc)
            continue
        got = geometry.estimate(s, mc, lams if use_lams else (), cone=use_cone,
                                optimal=use_optimal)
        assert got.curve == (curve if use_lams else [])
        assert got.cone == (cone if use_cone else None)
        assert got.optimal == (optimal if use_optimal else None)


@pytest.mark.parametrize("lams", [[1.0, -0.5], [float("nan")], [0.0, float("inf")]])
def test_invalid_lams_raise_before_any_stream(monkeypatch, lams):
    def refuse(*args):
        raise AssertionError("a stream was drawn")

    monkeypatch.setattr(geometry, "stream", refuse)
    s = signals.make_sparse(10, 2, seed=1).structure
    mc = McConfig(samples=64, seed=1)
    for call in (lambda: geometry.estimate(s, mc, lams, cone=True, optimal=True),
                 lambda: geometry.msd_lambda_curve(s, lams, mc),
                 lambda: geometry.msd_lambda(s, lams[-1], mc)):
        with pytest.raises(ValueError, match="lam"):
            call()


# ---------------------------------------------------------------------------
# Exact scale minimiser: KKT and grid dominance, per sample and pooled
# ---------------------------------------------------------------------------

def _structure(kind: str, seed: int):
    """Small structures of every kind, including profiles with c2 = 0 and with no
    clip thresholds."""
    rng = np.random.default_rng(seed)
    if kind == "sparse":
        return signals.make_sparse(9, 3, seed=seed).structure
    if kind == "weighted":
        return signals.make_weighted_sparse(
            9, 3, rng.integers(0, 3, size=9), rng.uniform(0.0, 2.0, size=3), seed=seed).structure
    if kind == "block":
        return signals.make_block_sparse(4, 2, 1, seed=seed).structure
    if kind == "lowrank":
        return signals.make_low_rank(3, 1, seed=seed).structure
    if kind == "weighted_zero_support":
        base = signals.make_sparse(9, 3, seed=seed).structure
        region_of = np.ones(9, dtype=int)
        region_of[base.support] = 0
        region_of[rng.integers(0, 9)] = 0
        return signals.WeightedSparseStructure(
            9, base.support, base.signs, region_of, [0.0, rng.uniform(0.5, 2.0)])
    if kind == "empty_support":
        return signals.SparseStructure(9, [], [])
    if kind == "full_support":  # no clip threshold at all (J = 0)
        return (signals.make_sparse(6, 6, seed=seed) if seed % 2
                else signals.make_low_rank(3, 3, seed=seed)).structure
    raise ValueError(kind)


def _derivative(p, lam) -> np.ndarray:
    """h(lam) = c2*lam - c1 - sum_j w_j (nu_j - lam)_+, per sample."""
    lam = np.broadcast_to(np.asarray(lam, dtype=float), p.c1.shape)
    t = np.maximum(p.nu - lam[:, None], 0.0)
    return p.c2 * lam - p.c1 - (t @ p.w if p.w is not None else t.sum(axis=1))


def _kkt_scale(p) -> np.ndarray:
    w = p.w if p.w is not None else np.ones(p.nu.shape[1])
    return 1.0 + np.abs(p.c1) + p.nu @ w


KINDS = ["sparse", "weighted", "block", "lowrank", "weighted_zero_support", "empty_support",
         "full_support"]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(KINDS), seed=st.integers(0, 2**20),
       scale=st.sampled_from([0.1, 1.0, 5.0]))
def test_cone_argmin_kkt_and_grid(kind, seed, scale):
    s = _structure(kind, seed)
    G = scale * np.random.default_rng(seed).standard_normal((4, s.ambient_dim))
    p = s.profile(G)
    tile = geometry._sorted(p)  # p stays the same profile
    with np.errstate(all="raise"):
        lam, val = geometry._cone_argmin(tile, np.empty_like(tile.nu))
    h = _derivative(p, lam)
    tol = 1e-12 * _kkt_scale(p) * (1.0 + scale)
    assert np.all(lam >= 0.0)
    assert np.all((np.abs(h) <= tol) | ((lam == 0.0) & (h >= -tol)))
    grid = np.linspace(0.0, 1.5 * float(lam.max()) + 2.0 * scale, 301)
    for i, g in enumerate(G):
        direct = geometry.dist_sq_scaled_subdiff(s, g, float(lam[i]))
        assert val[i] == pytest.approx(direct, rel=1e-9, abs=1e-9)
        assert all(val[i] <= geometry.dist_sq_scaled_subdiff(s, g, float(x)) + 1e-9 * (1 + val[i])
                   for x in grid)
    if p.c2 == 0.0:
        # flat beyond the largest clip threshold: the minimum is c0
        assert np.allclose(val, p.c0, rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(KINDS), seed=st.integers(0, 2**20))
def test_pooled_argmin_kkt_and_grid(kind, seed):
    s = _structure(kind, seed)
    p = s.profile(np.random.default_rng(seed).standard_normal((8, s.ambient_dim)))
    tile = geometry._sorted(p)  # p stays the same profile
    with np.errstate(all="raise"):
        lam = geometry._pooled_argmin(tile, np.empty_like(tile.nu))[0]
    h = float(_derivative(p, lam).sum())
    tol = 1e-12 * float(_kkt_scale(p).sum())
    assert lam >= 0.0
    assert abs(h) <= tol or (lam == 0.0 and h >= -tol)

    def mean_at(x):
        return float(geometry._profile_eval(tile, x).sum())

    best = mean_at(lam)
    for x in np.linspace(0.0, 1.5 * lam + 2.0, 301):
        assert best <= mean_at(x) + 1e-9 * (1.0 + abs(best))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(KINDS), seed=st.integers(0, 2**20),
       samples=st.sampled_from([1, 2, 7, 40]), lam=st.floats(0.0, 4.0),
       per_sample=st.booleans())
def test_sweeps_from_the_first_clipped_rank_are_exact(kind, seed, samples, lam, per_sample):
    # A sweep starts at the first rank whose top exceeds the smallest lam; one
    # that starts at rank 0 (every top at infinity) only adds exact zeros
    # first, so both carry the same bits, at one lam and at a lam per sample.
    # Both match the row-major profile, which sums each row as numpy does.
    s = _structure(kind, seed)
    rng = np.random.default_rng(seed)
    p = s.profile(rng.standard_normal((samples, s.ambient_dim)))
    lams = rng.uniform(0.0, 2.0 * lam, samples) if per_sample else lam
    want = row_major_profile_eval(p, lams)
    tile = geometry._sorted(p)
    whole = dataclasses.replace(tile, top=np.full_like(tile.top, np.inf))
    t = np.empty_like(tile.nu)
    got = geometry._profile_eval(tile, lams, t)
    assert np.array_equal(got, geometry._profile_eval(whole, lams, t))
    for skipped, swept in zip(geometry._slopes(tile, lams, t), geometry._slopes(whole, lams, t)):
        assert np.array_equal(skipped, swept)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_a_column_sums_alone_as_in_a_tile():
    # numpy sums a lone (J, 1) column pairwise but the columns of a wider
    # array in row order; _column_sums adds a lone column in row order too,
    # so a one-sample tile carries the bits of the same sample in a full tile
    t = np.random.default_rng(5).standard_normal((480, 262)) ** 2
    whole = geometry._column_sums(t)
    assert np.array_equal(whole, np.add.accumulate(t, axis=0)[-1])
    for i in range(t.shape[1]):
        for alone in (t[:, i:i + 1], t[:, i:i + 1].copy()):
            sums = geometry._column_sums(alone)
            assert sums.shape == (1,) and sums[0] == whole[i], i
    # a sweep that skips every rank adds nothing
    assert geometry._column_sums(t[:0, :1]).tolist() == [0.0]
    assert geometry._column_sums(t[:0]).tolist() == [0.0] * t.shape[1]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(KINDS), seed=st.integers(0, 2**20),
       layout=st.sampled_from([(300, 64), (37, 16), (200, 7), (1000, 999)]))
def test_bracketed_optimum_matches_pooled_newton(kind, seed, layout):
    # the bracket around the lead's minimiser against Newton from 0 on every
    # whole profile; a bracket of 0 or 1e-9 standard errors misses lam* and
    # forces a redraw. A call of at most LEAD samples takes no bracket.
    s = _structure(kind, seed)
    samples, chunk = layout
    mc = McConfig(samples=samples, seed=seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "CHUNK", chunk)
        _, _, (_, tuned) = whole_chunk_estimates(s, [], mc)
    paths = [(ci,) for ci in range(-(-samples // chunk))]
    sloped = s.profile(np.zeros((1, s.ambient_dim))).c2 > 0.0
    for z in (geometry.Z, 1e-9, 0.0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "CHUNK", chunk)
            mp.setattr(geometry, "Z", z)
            made = _counting_streams(mp)
            with np.errstate(all="raise"):
                lam, got = geometry.optimal_lambda(s, mc)
        assert lam == got.lam
        _assert_close_estimate(got, tuned)
        # the first pass, then at most one redraw of the same streams; with
        # c2 > 0, the lead's own lam0 > 0 is not lam*, so width 0 must redraw
        assert made in (paths, paths * 2), z
        if samples <= geometry.LEAD:
            assert made == paths, z
        elif z == 0.0 and sloped and lam > 0.0:
            assert made == paths * 2


def _counting_streams(mp) -> list:
    """Patch geometry's stream so that each stream path it makes is recorded."""
    made = []

    def counted(seed, *path):
        made.append(path)
        return stream(seed, *path)

    mp.setattr(geometry, "stream", counted)
    return made


@pytest.mark.parametrize("desc", ["sparse:500:20", "lowrank:30:4", "block:50:10:5"])
def test_bracket_holds_lam_star_in_one_pass(monkeypatch, desc):
    # Z standard errors of the lead's lam0 bracket lam* on the benchmark's
    # structures and sample count: each call draws its five chunks once, no redraw
    s = cli.parse_structure(desc, 1, "uniform")[0].structure
    made = _counting_streams(monkeypatch)
    for seed in range(1, 6):
        made.clear()
        geometry.optimal_lambda(s, McConfig(samples=20_000, seed=seed))
        assert made == [(ci,) for ci in range(5)], seed


@pytest.mark.parametrize("seed", range(4))
def test_flat_profile_gets_a_finite_bracket(monkeypatch, seed):
    # c2 = 0 and a flat profile past the largest threshold: lam* is the
    # oracle's, the largest threshold, found in one pass with no bracket
    # opened (each chunk is drawn once)
    opened = []
    open_bracket = geometry._PooledMinimum._open

    def recorded(self, a, b, c2):
        opened.append((a, b))
        open_bracket(self, a, b, c2)

    monkeypatch.setattr(geometry._PooledMinimum, "_open", recorded)
    made = _counting_streams(monkeypatch)
    for kind in ("weighted_zero_support", "empty_support"):
        s = _structure(kind, seed)
        for samples, chunk in ((1000, 999), (5000, 4096)):
            monkeypatch.setattr(geometry, "CHUNK", chunk)
            mc = McConfig(samples=samples, seed=seed)
            _, _, (_, tuned) = whole_chunk_estimates(s, [], mc)
            opened.clear()
            made.clear()
            lam, got = geometry.optimal_lambda(s, mc)
            assert opened == []
            assert made == [(0,), (1,)], (kind, samples)
            assert math.isfinite(lam) and lam == got.lam
            _assert_close_estimate(got, tuned)


def _traced_peak_mb(call) -> float:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_monte_carlo_memory_follows_the_tile():
    # numpy's allocations, as tracemalloc counts them: the pooled minimiser
    # keeps a few numbers a sample and the thresholds in a bracket of a few
    # standard errors, and the curve one (lams, samples) array. At 100,000
    # samples a sample index per kept threshold, and bincount's intp copy of
    # it, took the optimum to 26.0 MB; one int32 count per sample takes 22.5
    s = signals.make_sparse(500, 20, seed=1).structure
    lams = [0.1 * i for i in range(31)]
    assert _traced_peak_mb(lambda: geometry.optimal_lambda(s, McConfig(20_000, seed=7))) < 10.0
    assert _traced_peak_mb(lambda: geometry.optimal_lambda(s, McConfig(100_000, seed=7))) < 24.0
    assert _traced_peak_mb(
        lambda: geometry.msd_lambda_curve(s, lams, McConfig(100_000, seed=7))) < 35.0


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(KINDS), seed=st.integers(0, 2**20),
       scale=st.sampled_from([0.1, 1.0, 5.0]), lam=st.floats(0.0, 4.0))
def test_distance_is_residual_of_projection(kind, seed, scale, lam):
    # the profile of one sample against the independent projection formula
    s = _structure(kind, seed)
    g = scale * np.random.default_rng(seed).standard_normal(s.ambient_dim)
    p = geometry.project_scaled_subdiff(s, g, lam)
    direct = float((g - p) @ (g - p))
    size = float(g @ g) + lam * lam * 4.0 * s.ambient_dim
    assert geometry.dist_sq_scaled_subdiff(s, g, lam) == pytest.approx(
        direct, rel=1e-9, abs=1e-12 * (1.0 + size))
    # a member of the set: the expanded quadratic cancels, and must not go below 0
    assert 0.0 <= geometry.dist_sq_scaled_subdiff(s, p, lam) <= 1e-12 * (1.0 + size)


# ---------------------------------------------------------------------------
# Constants and closed-form bounds
# ---------------------------------------------------------------------------

def test_geometry_constants_ratios():
    gc = geometry.geometry_constants(signals.make_sparse(500, 20, seed=1).structure)
    assert gc.subgradient_radius / gc.sphere_max_value == pytest.approx(5.0)
    gc = geometry.geometry_constants(signals.make_low_rank(30, 4, seed=1).structure)
    assert gc.subgradient_radius / gc.sphere_max_value == pytest.approx(math.sqrt(7.5))
    gc = geometry.geometry_constants(signals.make_block_sparse(50, 10, 5, seed=1).structure)
    assert gc.subgradient_radius / gc.sphere_max_value == pytest.approx(math.sqrt(10.0))
    assert gc.tuning_lipschitz == pytest.approx(1 / math.sqrt(5.0))


def test_table1_values():
    s = signals.make_sparse(500, 20, seed=1).structure
    lam = math.sqrt(2 * math.log(25.0))
    assert geometry.table1_bound(s, lam) == pytest.approx((2 * math.log(25.0) + 3) * 20)

    s = signals.make_low_rank(30, 4, seed=1).structure
    lam = 2 * math.sqrt(30.0)
    assert geometry.table1_bound(s, lam) == pytest.approx(6 * 30 * 4 + 2 * 30)

    s = signals.make_block_sparse(50, 10, 5, seed=1).structure
    lam = math.sqrt(10) + math.sqrt(2 * math.log(10.0))
    assert geometry.table1_bound(s, lam) == pytest.approx((lam * lam + 12) * 5)


def test_table1_below_threshold_raises():
    s = signals.make_sparse(500, 20, seed=1).structure
    thr = geometry.table1_threshold(s)
    with pytest.raises(BoundNotValidError) as exc_info:
        geometry.table1_bound(s, thr - 1e-6)
    assert exc_info.value.threshold == pytest.approx(thr)


def test_table1_dominates_mc():
    mc = McConfig(samples=10_000, seed=31)
    for inst in (
        signals.make_sparse(200, 8, seed=2),
        signals.make_block_sparse(20, 5, 3, seed=2),
        signals.make_low_rank(12, 2, seed=2),
    ):
        s = inst.structure
        thr = geometry.table1_threshold(s)
        lams = [thr + 0.3 * j for j in range(4)]
        for est in geometry.msd_lambda_curve(s, lams, mc):
            assert geometry.table1_bound(s, est.lam) >= est.mean - 3 * est.stderr


def test_lipschitz_upper_bound_value():
    s = signals.make_sparse(500, 20, seed=1).structure
    got = geometry.lipschitz_upper_bound(s, 89.0)
    rl = math.sqrt(500) / math.sqrt(20)
    expected = 89.0 + 2 * math.pi * (rl ** 2 + rl * math.sqrt(89.0) + 1)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(548.7, abs=0.2)


def test_lipschitz_formula_limits():
    assert geometry._lipschitz_excess(0.0, 0.0) == pytest.approx(2 * math.pi)
    # dense case: R*L = 1
    s = signals.make_sparse(25, 25, seed=1).structure
    c = 13.0
    assert geometry.lipschitz_upper_bound(s, c) == pytest.approx(
        c + 2 * math.pi * (2 + math.sqrt(c))
    )


# ---------------------------------------------------------------------------
# Orthant cone duality: D(C) + D(C*) = n
# ---------------------------------------------------------------------------

def test_orthant_duality():
    n = 40
    rng = np.random.default_rng(33)
    G = rng.standard_normal((30_000, n))
    d_cone = (np.minimum(G, 0.0) ** 2).sum(axis=1)    # distance to nonneg orthant
    d_polar = (np.maximum(G, 0.0) ** 2).sum(axis=1)   # distance to its polar
    total = d_cone.mean() + d_polar.mean()
    se = math.sqrt(d_cone.var(ddof=1) / G.shape[0]) + math.sqrt(d_polar.var(ddof=1) / G.shape[0])
    assert abs(total - n) <= 3 * se
    # per-sample the two squared distances split ||g||^2 exactly
    assert np.allclose(d_cone + d_polar, (G ** 2).sum(axis=1))


def test_reproducibility_same_config():
    inst = signals.make_sparse(50, 5, seed=8)
    mc = McConfig(samples=5_000, seed=77)
    a = geometry.msd_cone(inst.structure, mc)
    b = geometry.msd_cone(inst.structure, mc)
    assert a == b


@pytest.mark.parametrize("field", ["samples", "seed"])
@pytest.mark.parametrize("value", [1000.0, 1.5, True, np.bool_(True), "100"])
def test_mc_config_rejects_non_integral_counts(field, value):
    args = {"samples": 1000, "seed": 1, field: value}
    with pytest.raises(TypeError, match=field):
        McConfig(**args)


def test_mc_config_rejects_negative_seed(monkeypatch):
    monkeypatch.setattr(geometry, "stream", None)  # the check comes before any draw
    with pytest.raises(ValueError, match="seed"):
        McConfig(samples=100, seed=-1)
    assert McConfig(samples=100, seed=0).seed == 0


def test_profile_shares_no_memory_with_its_draw():
    # the Monte Carlo chunks reuse one draw buffer, so a profile must own its arrays
    for kind in KINDS:  # full_support at seed 2 is a full-rank matrix
        s = _structure(kind, 2)
        G = np.random.default_rng(2).standard_normal((7, s.ambient_dim))
        p = s.profile(G)
        for name in ("c0", "c1", "nu"):
            assert not np.shares_memory(getattr(p, name), G), (kind, name)


class _RecordingStream:
    """A chunk stream that records the buffer each draw fills, and ``note()`` as it starts."""

    def __init__(self, rng, outs, note=lambda: None):
        self._rng, self._outs, self._note = rng, outs, note

    def standard_normal(self, *, out):
        self._outs.append((out, self._note()))
        return self._rng.standard_normal(out=out)


@pytest.mark.parametrize("kind", ["sparse", "lowrank"])
def test_one_chunk_alive_at_each_draw(monkeypatch, kind):
    # Six 50-sample chunks of 16-row tiles (24 tiles), drawn twice: a pass
    # and a forced redraw. Until the bracket opens, only the tiles that hold
    # the first LEAD samples may be alive, and the lead ends inside tile 20
    # (rows 250-265); from then on, and through the redraw, no earlier profile
    # is alive at any profile. The draws of a pass alternate between two
    # buffers, and a buffer is drawn again only once the profile of the tile
    # last drawn into it has returned: draw n starts after profiles 0..n-2.
    s = _tiled_structure(kind, 1)
    monkeypatch.setattr(geometry, "CHUNK", 50)
    mc = McConfig(samples=300, seed=1)
    live, outs, profiled = [], [], [0, 0]  # (first row, nu); profiles returned, rows profiled
    profile = type(s).profile

    def tracked(self, G):
        row = profiled[1] % mc.samples
        alive = [start for start, ref in live if ref() is not None]
        if profiled[1] < mc.samples and row < geometry.LEAD:
            assert all(start < geometry.LEAD for start in alive), profiled
        else:
            assert alive == [], profiled
        p = profile(self, G)
        live.append((row, weakref.ref(p.nu)))
        profiled[0] += 1
        profiled[1] += G.shape[0]
        return p

    def recorded(seed, *path):
        return _RecordingStream(stream(seed, *path), outs, lambda: profiled[0])

    monkeypatch.setattr(type(s), "profile", tracked)
    monkeypatch.setattr(geometry, "stream", recorded)
    monkeypatch.setattr(geometry, "Z", 0.0)
    monkeypatch.setattr(geometry, "TILE", 16 * s.ambient_dim)
    geometry.estimate(s, mc, [0.5, 1.0], cone=True, optimal=True)
    assert len(outs) == 2 * 24 and profiled == [2 * 24, 2 * 300]
    assert [start for start, _ in live[20:22]] == [250, 266]
    for n, (_, returned) in enumerate(outs):
        assert returned >= n - 1, (n, returned)
    for drawn in (outs[:24], outs[24:]):
        bufs = [out for out, _ in drawn]
        assert not np.shares_memory(bufs[0], bufs[1])
        assert all(np.shares_memory(out, bufs[n % 2]) for n, out in enumerate(bufs))


class _DrawError(Exception):
    pass


class _FailingStream:
    """A chunk stream whose draw raises."""

    def standard_normal(self, *, out):
        raise _DrawError("draw failed")


@pytest.mark.parametrize("case", ["returns", "sparse_nan", "lowrank_nan", "draw_raises",
                                  "redraw_raises"])
def test_draw_worker_ends_with_the_call(monkeypatch, case):
    # the draw-ahead thread is joined before estimate returns or raises, and
    # the exception keeps its type: a non-finite profile raised by the sweep
    # (sparse) or by the profile (low rank), or the draw's own exception, in
    # the first pass or in a forced redraw (Z = 0), where a chunk fails only
    # when it is drawn for the second time
    s = _tiled_structure("lowrank" if case == "lowrank_nan" else "sparse", 1)
    monkeypatch.setattr(geometry, "CHUNK", 64)
    mc = McConfig(samples=300, seed=1)
    if case.endswith("nan"):
        monkeypatch.setattr(geometry, "stream", lambda seed, ci: _PoisonedStream(
            stream(seed, ci), 5 if ci == 1 else 99, 0, np.nan))
    elif case == "draw_raises":
        monkeypatch.setattr(geometry, "stream",
                            lambda seed, ci: stream(seed, ci) if ci < 2 else _FailingStream())
    elif case == "redraw_raises":
        drawn = set()

        def once(seed, ci):
            if ci in drawn:
                return _FailingStream()
            drawn.add(ci)
            return stream(seed, ci)

        monkeypatch.setattr(geometry, "stream", once)
        monkeypatch.setattr(geometry, "Z", 0.0)
    before = threading.active_count()
    if case == "returns":
        geometry.estimate(s, mc, [1.0], cone=True, optimal=True)
        assert threading.active_count() == before
        return
    want = NumericalError if case.endswith("nan") else _DrawError
    with pytest.raises(want) as exc_info:
        geometry.estimate(s, mc, [1.0], cone=True, optimal=True)
    assert type(exc_info.value) is want
    assert threading.active_count() == before
    if want is NumericalError:
        assert exc_info.value.index == 69


def test_draw_ahead_under_thread_stress(monkeypatch):
    # four estimates at once (more threads than cores, each with its draw
    # worker) with 5-row tiles and a forced redraw, switching threads
    # every microsecond: each result is bitwise the serial one
    s = _tiled_structure("sparse", 2)
    mc = McConfig(samples=300, seed=3)
    monkeypatch.setattr(geometry, "CHUNK", 64)
    monkeypatch.setattr(geometry, "TILE", 5 * s.ambient_dim)
    monkeypatch.setattr(geometry, "Z", 0.0)

    def run():
        return geometry.estimate(s, mc, [0.5, 1.5], cone=True, optimal=True)

    want, results = run(), [None] * 4

    def worker(i):
        results[i] = run()

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [want] * 4


def test_draws_are_tile_sized(monkeypatch):
    # each chunk is drawn a tile at a time: no draw holds more than TILE
    # entries (one row, if a row is longer), and a stream's rows add up to its chunk
    cases = [(signals.make_sparse(500, 20, seed=1).structure, None, 9000, 4096),
             (_tiled_structure("sparse", 1), 7 * 40 + 3, 300, 64),
             (_tiled_structure("lowrank", 1), 100, 50, 16)]
    for s, tile, samples, chunk in cases:
        if tile is not None:
            monkeypatch.setattr(geometry, "TILE", tile)
        monkeypatch.setattr(geometry, "CHUNK", chunk)
        drawn = []

        def recorded(seed, ci):
            drawn.append((ci, []))
            return _RecordingStream(stream(seed, ci), drawn[-1][1])

        monkeypatch.setattr(geometry, "stream", recorded)
        geometry.estimate(s, McConfig(samples=samples, seed=1), [1.0], cone=True, optimal=True)
        assert drawn
        for ci, outs in drawn:
            assert all(out.size <= max(geometry.TILE, s.ambient_dim) for out, _ in outs), ci
            assert sum(out.shape[0] for out, _ in outs) == min(chunk, samples - ci * chunk), ci


def test_mc_config_counts():
    mc = McConfig(samples=np.int64(1000), seed=np.uint32(1))
    assert (mc.samples, mc.seed) == (1000, 1)
    assert all(type(v) is int for v in (mc.samples, mc.seed))
    with pytest.raises(ValueError, match="at least 2"):
        McConfig(samples=1, seed=1)
    # no ceiling: the pooled minimiser keeps a count per sample, not a sample index
    assert McConfig(samples=2**31, seed=1).samples == 2**31
