import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import grid_prox_scalar, l1_ball_shrink

from proxmse import prox, signals


# ---------------------------------------------------------------------------
# 1-D grid oracle: minimize 0.5*(y - x)^2 + tau*f(x) directly
# ---------------------------------------------------------------------------

def grid_prox_radial(gb, tau, step=1e-4):
    # block prox is radial: minimize over the scalar radius along gb
    nrm = np.linalg.norm(gb)
    ts = np.arange(0.0, nrm + 1.0 + step / 2, step)
    obj = 0.5 * (nrm - ts) ** 2 + tau * ts
    return ts[int(np.argmin(obj))] / nrm * np.asarray(gb)


# ---------------------------------------------------------------------------
# soft threshold
# ---------------------------------------------------------------------------

def test_soft_threshold_branches():
    r = prox.soft_threshold(np.array([3.0, 0.5, -3.0]), 1.0)
    assert np.allclose(r.minimizer, [2.0, 0.0, -2.0])
    assert r.residual <= 1e-10


def test_soft_threshold_zero_tau_identity():
    y = np.array([1.0, -0.2, 0.0, 7.0])
    r = prox.soft_threshold(y, 0.0)
    assert np.array_equal(r.minimizer, y)


def test_soft_threshold_boundary():
    r = prox.soft_threshold(np.array([1.0]), 1.0)
    assert r.minimizer[0] == 0.0


def test_soft_threshold_grid_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        y = float(rng.uniform(-4, 4))
        tau = float(rng.uniform(0, 2))
        got = prox.soft_threshold(np.array([y]), tau).minimizer[0]
        assert got == pytest.approx(grid_prox_scalar(y, tau), abs=1e-3)


# ---------------------------------------------------------------------------
# block soft threshold
# ---------------------------------------------------------------------------

def test_block_kill_at_boundary():
    r = prox.block_soft_threshold(np.array([3.0, 4.0]), 5.0, 2)
    assert np.allclose(r.minimizer, [0.0, 0.0])


def test_block_partial_shrink():
    r = prox.block_soft_threshold(np.array([3.0, 4.0]), 2.5, 2)
    assert np.allclose(r.minimizer, [1.5, 2.0])
    ref = grid_prox_radial([3.0, 4.0], 2.5)
    assert np.allclose(r.minimizer, ref, atol=1e-3)
    assert r.residual <= 1e-10


def test_block_size_one_reduces_to_soft():
    rng = np.random.default_rng(2)
    y = rng.standard_normal(12)
    tau = 0.8
    a = prox.block_soft_threshold(y, tau, 1).minimizer
    b = prox.soft_threshold(y, tau).minimizer
    assert np.allclose(a, b, atol=1e-14)


def test_block_rejects_indivisible_length():
    with pytest.raises(ValueError):
        prox.block_soft_threshold(np.arange(5.0), 1.0, 2)


@pytest.mark.parametrize("block_size", [0, -2, None, 2.0, True, np.float64(2.0)])
def test_block_size_must_be_positive(block_size):
    # a float or a bool is neither truncated nor left to fail inside numpy
    y = np.arange(4.0)
    error, match = ((ValueError, "block size must be a positive integer")
                    if block_size is None or type(block_size) is int else
                    (TypeError, "block size must be an integer"))
    with pytest.raises(error, match=match):
        prox.block_soft_threshold(y, 1.0, block_size)
    with pytest.raises(error, match=match):
        prox.project_ball(y, "l12", 1.0, block_size=block_size)
    with pytest.raises(error, match=match):
        prox.prox_residual("l12", y, y, 1.0, block_size=block_size)
    with pytest.raises(error, match=match):
        prox.dual_norm(y, "l12", block_size)


def test_non_finite_scale_rejected():
    y = np.array([1.0, -2.0])
    for call in (lambda: prox.soft_threshold(y, np.nan),
                 lambda: prox.block_soft_threshold(y, np.inf, 1),
                 lambda: prox.singular_value_threshold(np.eye(2), np.nan),
                 lambda: prox.project_ball(y, "l1", np.nan),
                 lambda: prox.prox_residual("l1", y, y, np.nan)):
        with pytest.raises(ValueError, match="must be finite and nonnegative"):
            call()


# ---------------------------------------------------------------------------
# singular value threshold
# ---------------------------------------------------------------------------

def test_svt_diagonal():
    r = prox.singular_value_threshold(np.diag([3.0, 1.0]), 2.0)
    assert np.allclose(r.minimizer, np.diag([1.0, 0.0]), atol=1e-12)
    assert r.residual <= 1e-8


def test_svt_zero_tau_identity():
    y = np.random.default_rng(3).standard_normal((4, 4))
    r = prox.singular_value_threshold(y, 0.0)
    assert np.allclose(r.minimizer, y, atol=1e-12)


def test_svt_full_kill_rank_one():
    u = np.array([1.0, 2.0, 2.0]) / 3.0
    v = np.array([0.0, 0.6, 0.8])
    y = 1.5 * np.outer(u, v)
    r = prox.singular_value_threshold(y, 2.0)
    assert np.allclose(r.minimizer, 0.0, atol=1e-12)


def test_svt_grid_oracle_on_diagonal():
    # positive diagonal: singular values are the diagonal entries, so the
    # matrix prox reduces to independent scalar problems
    rng = np.random.default_rng(4)
    for _ in range(10):
        d = rng.uniform(0.2, 4.0, size=3)
        tau = float(rng.uniform(0, 2))
        got = prox.singular_value_threshold(np.diag(d), tau).minimizer
        ref = np.diag([grid_prox_scalar(di, tau) for di in d])
        assert np.allclose(got, ref, atol=1e-3)


def test_svt_flat_input_roundtrip():
    y = np.random.default_rng(5).standard_normal((3, 3))
    flat = prox.singular_value_threshold(signals.as_vector(y), 0.7).minimizer
    mat = prox.singular_value_threshold(y, 0.7).minimizer
    assert np.allclose(signals.as_matrix(flat, 3), mat, atol=1e-14)


# ---------------------------------------------------------------------------
# weighted soft threshold
# ---------------------------------------------------------------------------

def test_weighted_all_ones_equals_soft():
    y = np.random.default_rng(6).standard_normal(9)
    a = prox.weighted_soft_threshold(y, 0.6, np.ones(9)).minimizer
    b = prox.soft_threshold(y, 0.6).minimizer
    assert np.array_equal(a, b)


def test_weighted_examples():
    assert prox.weighted_soft_threshold(np.array([3.0]), 1.0, np.array([2.0])).minimizer[0] == 1.0
    assert prox.weighted_soft_threshold(np.array([3.0]), 5.0, np.array([0.0])).minimizer[0] == 3.0


def test_weighted_rejects_negative_weight():
    with pytest.raises(ValueError):
        prox.weighted_soft_threshold(np.array([1.0]), 1.0, np.array([-0.5]))


@pytest.mark.parametrize("weights", [np.inf, [1.0, np.nan], np.ones((2, 2))],
                         ids=["inf", "nan", "per-row"])
def test_weighted_rejects_non_finite_or_stacked_weights(weights):
    # the weights are finite and broadcast to the last axis only
    with pytest.raises(ValueError):
        prox.weighted_soft_threshold(np.ones((2, 2)), 1.0, weights)


def test_weighted_grid_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        y = float(rng.uniform(-3, 3))
        tau = float(rng.uniform(0, 1.5))
        w = float(rng.uniform(0, 2))
        got = prox.weighted_soft_threshold(np.array([y]), tau, np.array([w])).minimizer[0]
        assert got == pytest.approx(grid_prox_scalar(y, tau, weight=w), abs=1e-3)


# ---------------------------------------------------------------------------
# ball projections
# ---------------------------------------------------------------------------

def test_project_ball_inside_unchanged():
    y = np.array([0.5, -0.3, 0.1])
    assert np.array_equal(prox.project_ball(y, "l1", 2.0), y)
    yb = np.array([0.3, 0.4, 0.0, 0.0])
    assert np.array_equal(prox.project_ball(yb, "l12", 1.0, block_size=2), yb)
    ym = 0.25 * np.eye(3)
    assert np.array_equal(prox.project_ball(ym, "nuclear", 1.0), ym)


def test_project_ball_l1_example_with_grid_oracle():
    got = prox.project_ball(np.array([3.0, 1.0]), "l1", 2.0)
    assert np.allclose(got, [2.0, 0.0], atol=1e-12)
    # two-stage 2-D grid search over the l1 ball
    y = np.array([3.0, 1.0])

    def best_near(center, half, step):
        xs = np.arange(center[0] - half, center[0] + half + step / 2, step)
        ys = np.arange(center[1] - half, center[1] + half + step / 2, step)
        xx, yy = np.meshgrid(xs, ys)
        mask = np.abs(xx) + np.abs(yy) <= 2.0
        dist = np.where(mask, (xx - y[0]) ** 2 + (yy - y[1]) ** 2, np.inf)
        idx = np.unravel_index(np.argmin(dist), dist.shape)
        return np.array([xx[idx], yy[idx]])

    coarse = best_near(np.zeros(2), 2.0, 1e-2)
    fine = best_near(coarse, 2e-2, 1e-4)
    assert np.allclose(got, fine, atol=2e-4)


def test_project_ball_nuclear_diagonal():
    got = prox.project_ball(np.diag([3.0, 1.0]), "nuclear", 2.0)
    assert np.allclose(got, np.diag([2.0, 0.0]), atol=1e-12)


def test_project_ball_membership_and_radial_dominance():
    rng = np.random.default_rng(8)
    for _ in range(50):
        y = rng.standard_normal(12) * 3
        r = float(rng.uniform(0.1, 4.0))
        p = prox.project_ball(y, "l1", r)
        assert np.abs(p).sum() <= r + 1e-10
        shrink = y * min(1.0, r / np.abs(y).sum())
        assert np.linalg.norm(p - y) <= np.linalg.norm(shrink - y) + 1e-12

        p = prox.project_ball(y, "l12", r, block_size=3)
        norms = np.linalg.norm(p.reshape(-1, 3), axis=1)
        assert norms.sum() <= r + 1e-10

        m = rng.standard_normal((4, 4))
        p = prox.project_ball(m, "nuclear", r)
        assert np.linalg.svd(p, compute_uv=False).sum() <= r + 1e-10


def test_project_ball_zero_radius():
    y = np.array([1.0, -2.0])
    assert np.allclose(prox.project_ball(y, "l1", 0.0), 0.0)


@pytest.mark.parametrize("y, kind, block_size, message", [
    (np.ones(5), "bogus", None, "unknown ball kind"),
    (np.ones(5), "l12", 2, "not divisible"),
    (np.ones(6), "nuclear", None, "square length"),
], ids=["kind", "block-size", "nuclear-shape"])
def test_project_ball_checks_its_input_at_zero_radius(y, kind, block_size, message):
    # radius 0 once returned zeros before the kind, block size or shape was checked
    for radius in (0.0, 1.0):
        with pytest.raises(ValueError, match=message):
            prox.project_ball(y, kind, radius, block_size=block_size)


# ---------------------------------------------------------------------------
# nonexpansiveness and scaling
# ---------------------------------------------------------------------------

def test_nonexpansiveness_all_operators():
    rng = np.random.default_rng(9)
    n_pairs = 1000
    for name, op in [
        ("soft", lambda z: prox.soft_threshold(z, 0.8).minimizer),
        ("weighted", lambda z: prox.weighted_soft_threshold(z, 0.8, w12).minimizer),
        ("block", lambda z: prox.block_soft_threshold(z, 0.8, 3).minimizer),
        ("svt", lambda z: prox.singular_value_threshold(z.reshape(4, 3) @ z.reshape(4, 3).T / 3, 0.5).minimizer),
        ("ball_l1", lambda z: prox.project_ball(z, "l1", 2.0)),
        ("ball_l12", lambda z: prox.project_ball(z, "l12", 2.0, block_size=3)),
    ]:
        w12 = rng.uniform(0, 2, size=12)
        for _ in range(n_pairs):
            a = rng.standard_normal(12) * 2
            b = rng.standard_normal(12) * 2
            if name == "svt":
                fa, fb = op(a).ravel(), op(b).ravel()
                da = np.linalg.norm(a.reshape(4, 3) @ a.reshape(4, 3).T / 3
                                    - b.reshape(4, 3) @ b.reshape(4, 3).T / 3)
            else:
                fa, fb = op(a), op(b)
                da = np.linalg.norm(a - b)
            assert np.linalg.norm(fa - fb) <= da + 1e-12


def test_scaling_identity():
    rng = np.random.default_rng(10)
    for _ in range(20):
        c = float(rng.uniform(0.1, 5.0))
        y = rng.standard_normal(8)
        tau = float(rng.uniform(0, 1.5))
        a = prox.soft_threshold(c * y, c * tau).minimizer
        b = c * prox.soft_threshold(y, tau).minimizer
        assert np.allclose(a, b, atol=1e-10)
        a = prox.block_soft_threshold(c * y, c * tau, 2).minimizer
        b = c * prox.block_soft_threshold(y, tau, 2).minimizer
        assert np.allclose(a, b, atol=1e-10)
        m = rng.standard_normal((3, 3))
        a = prox.singular_value_threshold(c * m, c * tau).minimizer
        b = c * prox.singular_value_threshold(m, tau).minimizer
        assert np.allclose(a, b, atol=1e-10)


# ---------------------------------------------------------------------------
# optimality residuals
# ---------------------------------------------------------------------------

def test_residual_certifies_soft_threshold():
    rng = np.random.default_rng(11)
    y = rng.standard_normal(20)
    r = prox.soft_threshold(y, 0.6)
    assert prox.prox_residual("l1", y, r.minimizer, 0.6) <= 1e-10


def test_residual_flags_non_optimal_point():
    y = np.array([0.5, 2.0, -1.0])   # first coordinate lies in (0, tau)
    res = prox.prox_residual("l1", y, y, 1.0)
    assert res > 0.1


def test_residual_svt():
    rng = np.random.default_rng(12)
    y = rng.standard_normal((6, 6))
    r = prox.singular_value_threshold(y, 0.9)
    assert r.residual <= 1e-8


def test_residual_zero_tau():
    y = np.array([1.0, 2.0])
    assert prox.prox_residual("l1", y, y, 0.0) == 0.0


def test_objective_values():
    y = np.array([3.0, 0.2])
    r = prox.soft_threshold(y, 1.0)
    # x = (2, 0): 1*2 + 0.5*(1 + 0.04)
    assert r.objective == pytest.approx(2.0 + 0.5 * (1.0 + 0.04))


# ---------------------------------------------------------------------------
# properties of the magnitude split: Moreau identity, ball projections
# ---------------------------------------------------------------------------

def _zero_structure(family, seed):
    """The structure of the zero point, whose subdifferential is the dual-norm unit ball."""
    if family == "l1":
        return signals.SparseStructure(12, [], [])
    if family == "wl1":
        rng = np.random.default_rng(seed)
        return signals.WeightedSparseStructure(12, [], [], rng.integers(0, 3, 12),
                                               rng.uniform(0.0, 2.0, 3))
    if family == "l12":
        return signals.BlockSparseStructure(4, 3, [], np.zeros((0, 3)))
    return signals.LowRankStructure(4, 0, np.zeros((4, 0)), np.zeros((4, 0)))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from(["l1", "wl1", "l12", "nuclear"]), seed=st.integers(0, 2**20),
       scale=st.sampled_from([0.1, 1.0, 5.0]), tau=st.floats(0.0, 3.0))
def test_moreau_identity(family, seed, scale, tau):
    # prox_{tau f}(y) + projection of y onto tau * (dual unit ball) = y
    s0 = _zero_structure(family, seed)
    y = scale * np.random.default_rng(seed).standard_normal(s0.ambient_dim)
    x = prox.prox_step(s0, y, tau).minimizer
    p = s0.project_subdiff(y, tau)
    assert np.linalg.norm(x + p - y) <= 1e-12 * np.linalg.norm(y)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(prox.BALL_KINDS), seed=st.integers(0, 2**20),
       scale=st.sampled_from([0.1, 1.0, 5.0]), fraction=st.floats(0.05, 1.5))
def test_project_ball_feasible_idempotent_nonexpansive(kind, seed, scale, fraction):
    s0 = _zero_structure(kind, seed)
    a, b = scale * np.random.default_rng(seed).standard_normal((2, s0.ambient_dim))
    radius = fraction * s0.norm(a)

    def project(z):
        return prox.project_ball(z, kind, radius, block_size=s0.block_size)

    pa, pb = project(a), project(b)
    assert s0.norm(pa) <= radius * (1.0 + 1e-12)
    assert np.linalg.norm(project(pa) - pa) <= 1e-12 * np.linalg.norm(a)
    assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) * (1.0 + 1e-12)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**20), scale=st.sampled_from([0.1, 1.0, 5.0]),
       tau=st.floats(0.0, 2.0))
def test_scalar_weight_soft_threshold_certifies_at_its_level(seed, scale, tau):
    y = scale * np.random.default_rng(seed).standard_normal(15)
    got = prox.weighted_soft_threshold(y, tau, 2.0)
    assert np.array_equal(got.minimizer, prox.soft_threshold(y, 2.0 * tau).minimizer)
    assert got.residual <= 1e-8


# ---------------------------------------------------------------------------
# stacks: one row of a stacked call is the call on that row alone, bitwise
# ---------------------------------------------------------------------------

def _stack(family, seed, scale):
    """Five points of the family's zero structure in the layout split reads:
    random rows, one shrunk deep inside any ball, one zero row."""
    s0 = _zero_structure(family, seed)
    rows = scale * np.random.default_rng(seed).standard_normal((5, s0.ambient_dim))
    rows[1] *= 1e-3
    rows[3] = 0.0
    return s0, s0.layout(rows)[0]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from(["l1", "wl1", "l12", "nuclear"]), seed=st.integers(0, 2**20),
       scale=st.sampled_from([0.1, 1.0, 5.0]), tau=st.sampled_from([0.0, 0.3, 2.0]))
def test_stacked_split_prox_and_residual_match_each_row(family, seed, scale, tau):
    s0, points = _stack(family, seed, scale)
    mags, rebuild = signals.split(points, family, s0.block_size)
    new = np.random.default_rng(seed + 1).uniform(0.0, 2.0, mags.shape)
    rebuilt = rebuild(new)
    step = prox.prox_step(s0, points, tau)
    other = np.random.default_rng(seed + 2).standard_normal(points.shape)
    far = prox.prox_residual(s0, points, other, tau)
    assert step.residual.shape == far.shape == step.objective.shape == (5,)
    for i, y in enumerate(points):
        row_mags, row_rebuild = signals.split(y, family, s0.block_size)
        assert np.array_equal(mags[i], row_mags)
        assert np.array_equal(rebuilt[i], row_rebuild(new[i]))
        one = prox.prox_step(s0, y, tau)
        assert np.array_equal(step.minimizer[i], one.minimizer)
        assert step.objective[i] == one.objective
        assert step.residual[i] == one.residual <= 1e-8
        assert far[i] == prox.prox_residual(s0, y, other[i], tau)
    assert np.array_equal(step.minimizer[3], np.zeros_like(points[3]))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(prox.BALL_KINDS), seed=st.integers(0, 2**20),
       scale=st.sampled_from([0.1, 1.0, 5.0]), fraction=st.sampled_from([0.0, 0.05, 0.5, 2.0]))
def test_stacked_ball_projection_and_dual_norm_match_each_row(kind, seed, scale, fraction):
    s0, points = _stack(kind, seed, scale)
    # the norm is the sum of the magnitudes for every ball kind
    radius = fraction * float(signals.split(points[0], kind, s0.block_size)[0].sum())
    projected = prox.project_ball(points, kind, radius, block_size=s0.block_size)
    duals = prox.dual_norm(points, kind, s0.block_size)
    for i, y in enumerate(points):
        assert np.array_equal(projected[i],
                              prox.project_ball(y, kind, radius, block_size=s0.block_size))
        assert duals[i] == prox.dual_norm(y, kind, s0.block_size)
    # a row already in the ball comes back unchanged, and radius 0 gives zero
    if radius > 0:
        assert np.array_equal(projected[1], points[1])
    else:
        assert not projected.any()
    assert not projected[3].any()


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(prox.BALL_KINDS), batch=st.sampled_from([(), (5,), (2, 3)]),
       seed=st.integers(0, 2**20), scale=st.sampled_from([0.1, 1.0, 5.0]),
       tied=st.booleans(), fraction=st.sampled_from([0.05, 0.5, 1.0, 2.0]))
def test_project_ball_keeps_the_row_threshold_rule_bits(kind, batch, seed, scale, tied, fraction):
    # the shared threshold rule, on columns, against the row-wise l1-ball
    # shrink it replaced: every projected point keeps its bits. Small whole
    # numbers tie magnitudes (and zero some); a radius near the first point's
    # norm leaves some rows inside the ball, which come back unchanged.
    s0 = _zero_structure(kind, seed)
    rng = np.random.default_rng(seed)
    size = batch + (s0.ambient_dim,)
    rows = rng.integers(-2, 3, size) if tied else rng.standard_normal(size)
    points = s0.layout(scale * rows)[0]
    mags, rebuild = signals.split(points, kind, s0.block_size)
    first = float(mags.reshape(-1, mags.shape[-1])[0].sum())  # the first point's norm
    radius = fraction * first if first > 0 else 1.0
    want = rebuild(np.maximum(mags - l1_ball_shrink(mags, radius)[..., None], 0.0))
    inside = mags.sum(axis=-1) <= radius
    want[inside] = points[inside]
    got = prox.project_ball(points, kind, radius, block_size=s0.block_size)
    assert got.shape == points.shape
    assert np.array_equal(got, want)
