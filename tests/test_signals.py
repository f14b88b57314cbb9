import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    block_at,
    householder_haar_columns,
    lowrank_at,
    lu_inverse_haar_columns,
    same_subdifferential,
    signed_support_at,
)

from proxmse import geometry, signals
from proxmse.errors import InvalidStructureError


def test_make_sparse_contract():
    inst = signals.make_sparse(500, 20, "unit", seed=1)
    s = inst.structure
    assert s.k == 20
    nz = np.flatnonzero(inst.values)
    assert nz.size == 20
    assert np.all(np.abs(inst.values[nz]) == 1.0)
    assert np.all(np.abs(s.signs) == 1.0)


def test_make_sparse_smallest():
    inst = signals.make_sparse(1, 1, "unit", seed=42)
    assert inst.values.shape == (1,)
    assert abs(inst.values[0]) == 1.0


def test_make_sparse_uniform_magnitudes():
    inst = signals.make_sparse(10, 3, "uniform", seed=7)
    nz = np.flatnonzero(inst.values)
    assert nz.size == 3
    mags = np.abs(inst.values[nz])
    assert np.all((mags >= 1.0) & (mags <= 2.0))


def test_make_sparse_rejects_bad_k():
    with pytest.raises(InvalidStructureError):
        signals.make_sparse(10, 0)
    with pytest.raises(InvalidStructureError):
        signals.make_sparse(10, 11)
    # a count that is not an integer is named, not failed on inside numpy
    for n, k, field in [(30.0, 3, "n"), (30, True, "k"), (30, 3.0, "k"), ("30", 3, "n")]:
        with pytest.raises(TypeError, match=f"^{field} must be an integer"):
            signals.make_sparse(n, k)


HUGE_COUNTS = """
import sys
from proxmse import signals
from proxmse.errors import InvalidStructureError
for make, args in ((signals.make_sparse, (2**63 - 1, 2**63 - 1)),
                   (signals.make_block_sparse, (2**63 - 1, 1, 2**63 - 1))):
    try:
        make(*args)
    except InvalidStructureError:
        continue
    sys.exit(f"{make.__name__}{args} returned")
"""


def test_huge_counts_raise_instead_of_crashing_numpy():
    # these counts once reached numpy's choice and killed the process with a
    # segmentation fault; run apart, a regression fails here instead
    proc = subprocess.run([sys.executable, "-c", HUGE_COUNTS], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_make_block_sparse_contract():
    inst = signals.make_block_sparse(50, 10, 5, seed=2)
    s = inst.structure
    assert inst.values.shape == (500,)
    blocks = inst.values.reshape(50, 10)
    norms = np.linalg.norm(blocks, axis=1)
    assert np.count_nonzero(norms > 1e-12) == 5
    assert np.allclose(np.linalg.norm(s.directions, axis=1), 1.0)


def test_make_block_sparse_degenerate():
    inst = signals.make_block_sparse(1, 1, 1, seed=5)
    assert inst.values.shape == (1,)
    assert inst.values[0] != 0


def test_make_block_sparse_nonzero_count():
    inst = signals.make_block_sparse(4, 3, 2, seed=3)
    assert np.count_nonzero(np.abs(inst.values) > 1e-12) == 6


def test_make_block_sparse_rejects_bad_k():
    with pytest.raises(InvalidStructureError):
        signals.make_block_sparse(4, 3, 5, seed=0)
    for t, b, k, field in [(10.0, 2, 3, "t"), (10, 2.0, 3, "b"), (10, 2, np.float64(3), "k"),
                           (10, True, 3, "b")]:
        with pytest.raises(TypeError, match=f"^{field} must be an integer"):
            signals.make_block_sparse(t, b, k)


def test_make_low_rank_contract():
    inst = signals.make_low_rank(30, 4, seed=5)
    s = inst.structure
    assert inst.values.shape == (900,)
    sv = np.linalg.svd(signals.as_matrix(inst.values, 30), compute_uv=False)
    assert np.count_nonzero(sv > 1e-10) == 4
    assert np.max(np.abs(s.u.T @ s.u - np.eye(4))) < 1e-10
    assert np.max(np.abs(s.v.T @ s.v - np.eye(4))) < 1e-10


def test_make_low_rank_full_rank():
    inst = signals.make_low_rank(2, 2, seed=11)
    sv = np.linalg.svd(signals.as_matrix(inst.values, 2), compute_uv=False)
    assert np.count_nonzero(sv > 1e-10) == 2


def test_make_low_rank_rank_one():
    inst = signals.make_low_rank(5, 1, seed=9)
    sv = np.linalg.svd(signals.as_matrix(inst.values, 5), compute_uv=False)
    assert np.count_nonzero(sv > 1e-10) == 1


def _assert_haar_columns_match_householder(d, r, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    q, ref = signals.haar_columns(rng, d, r), householder_haar_columns(ref_rng, d, r)
    assert q.shape == ref.shape == (d, r)
    assert np.abs(q - ref).max(initial=0.0) <= 1e-12
    assert np.linalg.norm(q.T @ q - np.eye(r), 2) <= 1e-13
    # the draw takes the same normals, so the trial's noise drawn next keeps its bits
    assert np.array_equal(rng.standard_normal(d), ref_rng.standard_normal(d))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(data=st.data(), d=st.integers(0, 64), seed=st.integers(0, 2**20))
def test_haar_columns_match_householder(data, d, seed):
    # Cholesky QR for 2r <= d and Householder beyond, r = 0 and r = d included
    r = data.draw(st.integers(0, d))
    _assert_haar_columns_match_householder(d, r, seed)


@pytest.mark.parametrize("d, r", [(500, 200), (500, 250)])
def test_haar_columns_match_householder_at_sweep_widths(d, r):
    for seed in range(3):
        _assert_haar_columns_match_householder(d, r, seed)


@pytest.mark.parametrize("d, r", [(2, 1), (40, 20), (129, 64), (500, 1), (500, 64)])
def test_haar_columns_keep_the_lu_inverse_bits_up_to_width_64(d, r):
    for seed in range(3):
        q = signals.haar_columns(np.random.default_rng(seed), d, r)
        assert np.array_equal(q, lu_inverse_haar_columns(np.random.default_rng(seed), d, r))


@pytest.mark.parametrize("r", [65, 99, 140, 200, 250])
def test_haar_columns_blocked_inverse_past_width_64(r):
    # the blocked triangular inverse moves Q in its last bits only
    for seed in range(3):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        q, ref = signals.haar_columns(rng, 500, r), lu_inverse_haar_columns(ref_rng, 500, r)
        assert np.abs(q.T @ q - np.eye(r)).max() <= 1e-14
        assert np.abs(q - ref).max() <= 1e-13
        assert np.array_equal(rng.standard_normal(500), ref_rng.standard_normal(500))


def test_make_low_rank_rejects_bad_rank():
    with pytest.raises(InvalidStructureError):
        signals.make_low_rank(3, 4, seed=0)
    for d, r, field in [(6, 2.0, "r"), (6.0, 2, "d"), (6, False, "r")]:
        with pytest.raises(TypeError, match=f"^{field} must be an integer"):
            signals.make_low_rank(d, r)
    # numpy integers are counts
    assert signals.make_low_rank(np.int64(6), np.int32(2)).structure.r == 2


def test_degrees_of_freedom():
    assert signals.make_sparse(500, 20, seed=1).structure.dof == 20
    assert signals.make_low_rank(30, 4, seed=1).structure.dof == 224
    assert signals.make_block_sparse(50, 10, 5, seed=1).structure.dof == 50


def test_degrees_of_freedom_bounded_by_ambient():
    cases = [
        signals.make_sparse(17, 17, seed=0).structure,
        signals.make_block_sparse(6, 4, 6, seed=0).structure,
        signals.make_low_rank(7, 7, seed=0).structure,
        signals.make_low_rank(9, 2, seed=0).structure,
    ]
    for s in cases:
        assert s.dof <= s.ambient_dim


def test_constructors_deterministic():
    a = signals.make_sparse(40, 6, "uniform", seed=123)
    b = signals.make_sparse(40, 6, "uniform", seed=123)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.structure.support, b.structure.support)
    a = signals.make_low_rank(8, 3, seed=99)
    b = signals.make_low_rank(8, 3, seed=99)
    assert np.array_equal(a.values, b.values)
    a = signals.make_block_sparse(7, 3, 2, seed=4)
    b = signals.make_block_sparse(7, 3, 2, seed=4)
    assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("make, at", [
    (lambda: signals.make_sparse(30, 5, "uniform", seed=8), signed_support_at),
    (lambda: signals.make_weighted_sparse(12, 4, np.arange(12) % 3, [0.0, 1.0, 2.5], seed=8),
     signed_support_at),
    (lambda: signals.make_block_sparse(6, 4, 3, seed=8), block_at),
    (lambda: signals.make_low_rank(9, 3, seed=8), lowrank_at),
], ids=["sparse", "weighted", "block", "lowrank"])
def test_at_reproduces_structure(make, at):
    inst = make()
    derived = at(inst.structure, inst.values)
    assert same_subdifferential(inst.structure, derived, tol=1e-9)
    # same subdifferential, same distances (low rank: through the SVD's complement bases)
    g = np.random.default_rng(1).standard_normal(inst.ambient_dim)
    assert geometry.dist_sq_scaled_subdiff(derived, g, 0.7) == pytest.approx(
        geometry.dist_sq_scaled_subdiff(inst.structure, g, 0.7), rel=1e-10)


def test_instance_rejects_zero_vector():
    s = signals.SparseStructure(4, [1], [1.0])
    with pytest.raises(InvalidStructureError):
        signals.SignalInstance(s, np.zeros(4))


def test_instance_rejects_support_leak():
    s = signals.SparseStructure(4, [1], [1.0])
    with pytest.raises(InvalidStructureError):
        signals.SignalInstance(s, np.array([0.5, 1.0, 0.0, 0.0]))


def test_norm_values():
    inst = signals.make_sparse(10, 3, "unit", seed=1)
    assert inst.structure.norm(inst.values) == pytest.approx(3.0)
    inst = signals.make_block_sparse(4, 2, 2, seed=1, magnitude_law="unit")
    blocks = inst.values.reshape(4, 2)
    assert inst.structure.norm(inst.values) == pytest.approx(
        np.linalg.norm(blocks, axis=1).sum()
    )
    inst = signals.make_low_rank(5, 2, seed=1)
    sv = np.linalg.svd(signals.as_matrix(inst.values, 5), compute_uv=False)
    assert inst.structure.norm(inst.values) == pytest.approx(sv.sum())


def test_nonnegative_helper():
    inst = signals.make_sparse(20, 4, "uniform", seed=3)
    pos = signals.nonnegative(inst)
    assert np.all(pos.values >= 0)
    assert np.array_equal(pos.structure.support, inst.structure.support)
    assert np.all(pos.structure.signs == 1.0)


def test_weighted_sparse_structure():
    region_of = np.zeros(12, dtype=int)
    region_of[6:] = 1
    inst = signals.make_weighted_sparse(12, 4, region_of, [1.0, 2.0], seed=2)
    s = inst.structure
    assert s.coordinate_weights.shape == (12,)
    assert set(np.unique(s.coordinate_weights)) == {1.0, 2.0}
    assert s.norm(inst.values) == pytest.approx(
        float(np.sum(s.coordinate_weights * np.abs(inst.values)))
    )


def test_weighted_sparse_rejects_out_of_range_support():
    region_of = np.zeros(4, dtype=int)
    for support in ([-1], [4]):
        with pytest.raises(InvalidStructureError, match="support index out of range"):
            signals.WeightedSparseStructure(4, support, [1.0], region_of, [1.0])
        with pytest.raises(InvalidStructureError, match="support index out of range"):
            signals.SparseStructure(4, support, [1.0])


def test_weighted_sparse_validation_matches_sparse():
    with pytest.raises(InvalidStructureError, match="ambient dimension must be positive"):
        signals.WeightedSparseStructure(0, [], [], [], [1.0])
    with pytest.raises(InvalidStructureError, match="ambient dimension must be positive"):
        signals.SparseStructure(0, [], [])
    with pytest.raises(InvalidStructureError, match="support indices must be distinct"):
        signals.WeightedSparseStructure(4, [1, 1], [1.0, 1.0], np.zeros(4, dtype=int), [1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_weighted_sparse_rejects_non_finite_weights(bad):
    with pytest.raises(InvalidStructureError, match="weights must be finite and nonnegative"):
        signals.WeightedSparseStructure(3, [0], [1.0], [0, 1, 1], [1.0, bad])


def test_low_rank_rejects_empty_side():
    with pytest.raises(InvalidStructureError, match="matrix side must be positive"):
        signals.LowRankStructure(0, 0, np.zeros((0, 0)), np.zeros((0, 0)))


FLAT = np.array([[1.0], [0.0]])


@pytest.mark.parametrize("build, error", [
    (lambda: signals.SparseStructure(5, [0.7], [1.0]), InvalidStructureError),
    (lambda: signals.SparseStructure(5, [np.nan], [1.0]), InvalidStructureError),
    (lambda: signals.SparseStructure(5, [np.inf], [1.0]), InvalidStructureError),
    (lambda: signals.SparseStructure(5, [True], [1.0]), InvalidStructureError),
    (lambda: signals.BlockSparseStructure(4, 2, [1.9], [[1.0, 0.0]]), InvalidStructureError),
    (lambda: signals.WeightedSparseStructure(3, [0], [1.0], [0.5, 1.2, 0], [1.0, 1.0]),
     InvalidStructureError),
    (lambda: signals.SparseStructure(5.0, [0], [1.0]), TypeError),
    (lambda: signals.WeightedSparseStructure(3.0, [0], [1.0], [0, 0, 0], [1.0]), TypeError),
    (lambda: signals.BlockSparseStructure(4.0, 2, [1], [[1.0, 0.0]]), TypeError),
    (lambda: signals.BlockSparseStructure(4, 2.0, [1], [[1.0, 0.0]]), TypeError),
    (lambda: signals.LowRankStructure(2.0, 1, FLAT, FLAT), TypeError),
    (lambda: signals.LowRankStructure(2, 1.0, FLAT, FLAT), TypeError),
    (lambda: geometry.msd_lambda_exact_l1(10, 2.5, 1.0), TypeError),
    (lambda: geometry.msd_lambda_exact_l1(10.0, 2, 1.0), TypeError),
], ids=["support-fraction", "support-nan", "support-inf", "support-bool", "active-fraction",
        "region-fraction", "sparse-n", "weighted-n", "block-t", "block-b", "lowrank-d",
        "lowrank-r", "exact-k", "exact-n"])
def test_structures_reject_fractional_counts_and_indices(build, error):
    # each was truncated: support [0.7] became [0], active [1.9] became [1],
    # region_of [0.5, 1.2, 0] became [0, 1, 0], SparseStructure(5.0, ...) was
    # labelled sparse:5.0:1 and msd_lambda_exact_l1(10, 2.5, 1.0) returned 6.13
    with pytest.raises(error):
        build()


@pytest.mark.parametrize("build, label", [
    (lambda: signals.SparseStructure(5, [], []), "sparse:5:0"),
    (lambda: signals.SparseStructure(np.int64(5), [1.0, 3], [1.0, -1.0]), "sparse:5:2"),
    (lambda: signals.WeightedSparseStructure(3, [], [], [0.0, 1.0, 1.0], [1.0, 2.0]),
     "weighted:3:0:2"),
    (lambda: signals.BlockSparseStructure(4, 2, [], np.zeros((0, 2))), "block:4:2:0"),
    (lambda: signals.LowRankStructure(np.int32(2), np.int64(1), FLAT, FLAT), "lowrank:2:1"),
], ids=["sparse-empty", "sparse-whole-floats", "weighted-whole-floats", "block-empty",
        "lowrank-numpy-counts"])
def test_structures_keep_empty_and_whole_number_indices(build, label):
    s = build()
    assert s.label == label
    for name in ("n", "t", "b", "d", "r"):
        assert type(getattr(s, name, 0)) is int
    for name in ("support", "active", "region_of"):
        assert getattr(s, name, np.zeros(0, dtype=int)).dtype.kind == "i"


def test_min_magnitude():
    inst = signals.make_sparse(10, 2, "uniform", seed=5)
    nz = inst.values[np.flatnonzero(inst.values)]
    assert inst.min_magnitude() == pytest.approx(np.min(np.abs(nz)))
    inst = signals.make_low_rank(6, 2, seed=5)
    sv = np.linalg.svd(signals.as_matrix(inst.values, 6), compute_uv=False)
    assert inst.min_magnitude() == pytest.approx(sv[1])


@st.composite
def _any_structure(draw):
    """A structure of any class, from one-entry rows to rows long enough that numpy
    sums them pairwise."""
    seed = draw(st.integers(0, 2**20))
    kind = draw(st.sampled_from(["sparse", "weighted", "block", "lowrank"]))
    if kind == "lowrank":
        d = draw(st.integers(1, 24))
        return signals.make_low_rank(d, draw(st.integers(1, d)), seed=seed).structure
    if kind == "block":
        t = draw(st.integers(1, 40))
        return signals.make_block_sparse(t, draw(st.integers(1, 12)), draw(st.integers(1, t)),
                                         seed=seed).structure
    n = draw(st.integers(1, 400))
    k = draw(st.integers(1, n))
    if kind == "sparse":
        return signals.make_sparse(n, k, seed=seed).structure
    regions = draw(st.integers(1, 4))
    rng = np.random.default_rng(seed)
    # a zero weight puts its off-support coordinates into c0, not into nu
    weights = rng.choice([0.0, 0.5, 1.0, 2.0], size=regions)
    return signals.make_weighted_sparse(n, k, rng.integers(0, regions, size=n), weights,
                                        seed=seed).structure


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(s=_any_structure(), n=st.integers(1, 300), seed=st.integers(0, 2**20))
def test_profiles_are_row_independent(s, n, seed):
    # a sample's c0, c1 and nu carry the same bits in any stack of rows, down
    # to the one-row stack, so geometry may profile its draws a tile at a time
    G = np.random.default_rng(seed).standard_normal((n, s.ambient_dim))
    p = s.profile(G)
    rows = [s.profile(G[i:i + 1]) for i in range(n)]
    assert p.nu.flags.c_contiguous
    for name in ("c0", "c1", "nu"):
        assert np.array_equal(getattr(p, name), np.concatenate([getattr(q, name) for q in rows])), \
            name
