import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import householder_haar_columns

from proxmse import lasso, prox, signals
from proxmse.errors import NumericalError, RunQualityError
from proxmse.streams import stream


# ---------------------------------------------------------------------------
# measurement operators
# ---------------------------------------------------------------------------

def test_partial_unitary_rows_orthonormal():
    a = lasso.sample_partial_unitary(7, 20, seed=1)
    assert np.max(np.abs(a @ a.T - np.eye(7))) < 1e-10


def test_full_unitary_preserves_norms():
    a = lasso.sample_partial_unitary(15, 15, seed=2)
    x = np.random.default_rng(3).standard_normal(15)
    assert np.linalg.norm(a @ x) == pytest.approx(np.linalg.norm(x), abs=1e-10)


def test_single_row_is_unit_vector():
    a = lasso.sample_partial_unitary(1, 9, seed=4)
    assert a.shape == (1, 9)
    assert np.linalg.norm(a[0]) == pytest.approx(1.0, abs=1e-12)


def test_partial_unitary_haar_energy_fraction():
    # E ||A x||^2 = (m/n) ||x||^2 for Haar row spans (trace identity)
    m, n = 3, 8
    x = np.random.default_rng(5).standard_normal(n)
    vals = []
    for seed in range(10_000):
        a = lasso.sample_partial_unitary(m, n, seed=seed)
        ax = a @ x
        vals.append(float(ax @ ax))
    vals = np.asarray(vals)
    target = m / n * float(x @ x)
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    assert abs(vals.mean() - target) <= 3 * se


def test_partial_unitary_rejects_m_above_n():
    with pytest.raises(ValueError):
        lasso.sample_partial_unitary(10, 4, seed=0)


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

def test_solver_identity_operator_matches_projection():
    a = np.eye(2)
    y = np.array([3.0, 1.0])
    sol = lasso.solve_constrained_lasso(a, y, lasso.BallSpec("l1", 2.0))
    assert sol.converged
    assert np.allclose(sol.x, prox.project_ball(y, "l1", 2.0), atol=1e-10)
    assert np.allclose(sol.x, [2.0, 0.0], atol=1e-10)


def test_solver_cost_never_exceeds_truth_cost():
    inst = signals.make_sparse(40, 3, "unit", seed=9)
    x0 = inst.values
    rng = np.random.default_rng(10)
    a = lasso.sample_partial_unitary(40, 40, seed=11)
    sigma = 1e-3
    y = a @ x0 + sigma * rng.standard_normal(40)
    ball = lasso.ball_for(inst)
    sol = lasso.solve_constrained_lasso(a, y, ball, x_init=x0)
    cost_truth = float(np.sum((y - a @ x0) ** 2))
    assert sol.cost <= cost_truth


def test_noiseless_exact_recovery_above_transition():
    inst = signals.make_sparse(60, 3, "unit", seed=12)
    x0 = inst.values
    a = lasso.sample_partial_unitary(40, 60, seed=13)   # m well above the cone MSD (~21)
    y = a @ x0
    ball = lasso.ball_for(inst)
    sol = lasso.solve_constrained_lasso(a, y, ball)
    assert sol.converged
    assert np.linalg.norm(sol.x - x0) <= 1e-6 * np.linalg.norm(x0)


def test_solver_gaussian_default_step_recovers_signal():
    inst = signals.make_sparse(30, 2, "unit", seed=14)
    a = stream(15).standard_normal((40, 30))
    y = a @ inst.values
    ball = lasso.ball_for(inst)
    sol = lasso.solve_constrained_lasso(a, y, ball)   # step 1/||A||^2, exact
    assert sol.converged
    assert np.linalg.norm(sol.x - inst.values) <= 1e-5 * np.linalg.norm(inst.values)


def test_solver_default_step_is_exact_on_gaussian_operator():
    # the step is 1/||A||^2 from the exact operator norm; an estimate short of
    # ||A||^2 would give a step above the 1/L that the step-length stop assumes
    a = stream(17).standard_normal((80, 100))
    _, step, gram = lasso._operator_step(a, np.zeros(80))
    assert step == 1.0 / np.linalg.norm(a, 2) ** 2
    support = np.array([3, 17, 40, 99])
    explicit = (a.T @ a)[np.ix_(support, support)]
    assert np.abs(gram(support) - explicit).max() <= 1e-12 * np.abs(explicit).max()
    # a Projector's norm is exactly one, and its step takes no SVD; its Gram
    # block is P_SS, from the rows of Q alone
    q = signals.haar_columns(np.random.default_rng(18), 9, 4)
    for complement, explicit in ((False, q @ q.T), (True, np.eye(9) - q @ q.T)):
        p = lasso.Projector(q, complement)
        *operator_step, gram = lasso._operator_step(p, p @ np.ones(9))
        assert tuple(operator_step) == (p, 1.0)
        support = np.array([0, 4, 5, 8])
        assert np.abs(gram(support) - explicit[np.ix_(support, support)]).max() <= 1e-15


def test_solver_zero_operator_raises_numerical_error():
    with pytest.raises(NumericalError, match="no step size"):
        lasso.solve_constrained_lasso(np.zeros((3, 5)), np.ones(3), lasso.BallSpec("l1", 1.0))


def test_solver_default_step_off_the_ones_null_space():
    # the all-ones vector lies in the null space of A = [1, -1]; ||A||^2 = 2,
    # so the step is 1/2
    a = np.array([[1.0, -1.0]])
    assert lasso._operator_step(a, np.ones(1))[1] == pytest.approx(0.5, rel=1e-15)
    sol = lasso.solve_constrained_lasso(a, [1.0], lasso.BallSpec("l1", 1.0))
    assert sol.converged
    assert np.allclose(sol.x, [0.5, -0.5], atol=1e-12)


class _CostlierBall:
    """An l1 ball of radius 2 whose projection keeps the start, then returns one
    feasible point costlier than it, (1, 0), whatever it is given."""

    kind = "l1"
    radius = 2.0

    def __init__(self):
        self.calls = 0

    def project(self, x):
        self.calls += 1
        return np.array(x, dtype=float) if self.calls == 1 else np.array([1.0, 0.0])

    def dual_norm(self, g):
        return prox.dual_norm(g, "l1")


def test_solver_flags_cost_above_start():
    # the step-length stop fires once the iterates stop moving, here at a
    # point costlier than the start, which must not count as converged
    a = np.array([[1.0, 0.0]])
    sol = lasso.solve_constrained_lasso(a, [0.0], _CostlierBall(), x_init=np.array([0.01, 0.0]))
    assert sol.iterations == 2
    assert sol.cost == 1.0 > 0.01 ** 2
    assert not sol.converged


def _gap(a, y, x, ball):
    g = a.T @ (y - a @ x)
    if ball.kind == "l1":
        dual = np.max(np.abs(g))
    elif ball.kind == "l12":
        dual = np.max(np.linalg.norm(g.reshape(-1, ball.block_size), axis=1))
    else:
        d = math.isqrt(g.size)
        dual = np.linalg.svd(g.reshape(d, d), compute_uv=False)[0]
    return 2 * (ball.radius * dual - g @ x)


@pytest.mark.parametrize("matrix_kind", ["unitary", "gaussian"])
@pytest.mark.parametrize("make, m", [
    (lambda: signals.make_block_sparse(50, 10, 5, seed=30), 250),   # cone MSD ~109
    (lambda: signals.make_low_rank(30, 4, seed=31), 480),           # cone MSD ~389
], ids=["block", "lowrank"])
def test_solver_block_and_nuclear_balls(make, m, matrix_kind):
    inst = make()
    x0 = inst.values
    n = x0.size
    if matrix_kind == "unitary":
        a = lasso.sample_partial_unitary(m, n, seed=32)
    else:
        a = stream(32).standard_normal((m, n))
    sigma = lasso.default_sigma(inst)
    v = np.random.default_rng(33).standard_normal(m)
    y = a @ x0 + sigma * v
    ball = lasso.ball_for(inst)
    sol = lasso.solve_constrained_lasso(a, y, ball, x_init=x0)  # step 1/||A||^2, exact
    assert sol.converged
    noise_energy = float(v @ v)
    assert sol.cost <= sigma ** 2 * noise_energy
    proj_err = a @ (sol.x - x0)
    energy = (float(proj_err @ proj_err) + sol.cost) / sigma ** 2
    assert energy <= noise_energy * (1 + 1e-6)
    # the reported gap is the Frank-Wolfe gap at x, and the step-length stop
    # bounds it: gap <= (4/step) ||x+ - z|| diam <= (4/step) tol ||x|| 2 radius
    gap = _gap(a, y, sol.x, ball)
    assert sol.gap == pytest.approx(gap, rel=1e-6, abs=1e-15)
    step = 1.0 / np.linalg.norm(a, 2) ** 2
    bound = 8 * ball.radius * lasso.TOL * np.linalg.norm(sol.x) / step
    assert -1e-15 <= sol.gap <= bound


@pytest.mark.parametrize("make, m", [
    (lambda: signals.make_block_sparse(20, 5, 3, seed=1), 60),
    (lambda: signals.make_low_rank(10, 2, seed=1), 70),
], ids=["block", "lowrank"])
def test_block_and_lowrank_solves_never_solve_a_face(make, m, monkeypatch):
    # only the l1 ball's faces are linear, so the solver tracks no sign
    # pattern on the l1,2 and nuclear balls and never asks for their face
    inst = make()

    def face(*args):
        raise AssertionError(f"a face solved on the {inst.structure.family} ball")

    monkeypatch.setattr(lasso, "_face", face)
    a = stream(5).standard_normal((m, inst.ambient_dim))
    y = a @ inst.values + 0.01 * stream(6).standard_normal(m)
    sol = lasso.solve_constrained_lasso(a, y, lasso.ball_for(inst))
    assert sol.converged and sol.finish == "step"
    assert sol.iterations > 10 * lasso.HOLD


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 8), extra=st.integers(0, 6), seed=st.integers(0, 2**20),
       frac=st.floats(0.05, 0.95), noise=st.sampled_from([0.0, 0.01, 1.0]))
def test_solver_l1_face_solution_and_kkt(n, extra, seed, frac, noise):
    # small full-column-rank problems whose least-squares point lies outside
    # the ball, so the solution is unique and sits on the boundary
    rng = np.random.default_rng(seed)
    m = n + extra
    a = rng.standard_normal((m, n))
    y = a @ (rng.standard_normal(n) * (rng.random(n) < 0.6)) + noise * rng.standard_normal(m)
    radius = frac * float(np.abs(np.linalg.lstsq(a, y, rcond=None)[0]).sum())
    if radius <= 1e-3:
        return
    sol = lasso.solve_constrained_lasso(a, y, lasso.BallSpec("l1", radius))
    assert sol.converged
    x = sol.x
    support = np.flatnonzero(x)
    signs = np.sign(x[support])
    # least squares on the face {x_S : signs . x_S = radius, x off S = 0}
    a_s = a[:, support]
    kkt = np.block([[a_s.T @ a_s, signs[:, None]], [signs[None, :], np.zeros((1, 1))]])
    face = np.zeros(n)
    face[support] = np.linalg.solve(kkt, np.concatenate([a_s.T @ y, [radius]]))[:-1]
    assert np.linalg.norm(x - face) <= 1e-6 * max(1.0, np.linalg.norm(x))
    # KKT: A^T r is lam * sign(x) on the support and at most lam off it
    g = a.T @ (y - a @ x)
    lam = np.max(np.abs(g[support]))
    assert np.allclose(g[support] * signs, lam, rtol=1e-6, atol=1e-12)
    assert np.all(np.delete(np.abs(g), support) <= lam * (1 + 1e-6))


def test_complement_projector_is_the_orthogonal_projector():
    rng = np.random.default_rng(35)
    q = signals.haar_columns(rng, 9, 4)
    x = rng.standard_normal(9)
    for complement, explicit in ((False, q @ q.T), (True, np.eye(9) - q @ q.T)):
        p = lasso.Projector(q, complement)
        assert p.shape == (9, 9)
        px = p @ x
        assert np.abs(px - explicit @ x).max() <= 1e-14
        assert np.abs(p @ px - px).max() <= 1e-14
        # the adjoint onto range(P) is the inclusion, exact on range(P)
        assert np.array_equal(p.T @ px, px)
    identity = lasso.Projector(signals.haar_columns(rng, 9, 0), complement=True)
    assert np.array_equal(identity @ x, x)


def test_projector_rejects_y_outside_its_range():
    rng = np.random.default_rng(37)
    inst = signals.make_sparse(12, 2, "unit", seed=37)
    p = lasso.Projector(signals.haar_columns(rng, 12, 5), complement=False)
    w = p @ rng.standard_normal(12)
    ball = lasso.ball_for(inst)
    assert lasso.solve_constrained_lasso(p, w, ball).converged
    with pytest.raises(ValueError, match="outside range"):
        lasso.solve_constrained_lasso(p, w + 1e-6 * rng.standard_normal(12), ball)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(family=st.sampled_from(["l1", "l12"]), size=st.integers(3, 12),
       k=st.integers(1, 3), kq_frac=st.floats(0.0, 0.99), complement=st.booleans(),
       seed=st.integers(0, 2**20), sigma=st.sampled_from([0.01, 0.3, 1.0]))
def test_projector_form_solves_the_same_problem(family, size, k, kq_frac, complement,
                                                seed, sigma):
    # (P, w) with w = P x0 + sigma P g, against the explicit A whose
    # orthonormal rows span range(P) and y = A x0 + sigma A (P g): A^T A = P
    # and A^T y = w, so FISTA takes the same steps on both. With complement,
    # P = I - Q Q^T and m = n - kq >= n/2; without, P = Q Q^T, A = Q^T and
    # m = kq <= n/2
    if family == "l1":
        inst = signals.make_sparse(2 * size, min(k, size), "uniform", seed=seed)
    else:
        inst = signals.make_block_sparse(size, 2, min(k, size), seed=seed)
    x0 = inst.values
    n = x0.size
    kq = int(kq_frac * ((n + 1) // 2))
    if not complement:
        kq = max(kq, 1)
    rng = np.random.default_rng(seed)
    q = signals.haar_columns(rng, n, kq)
    p = lasso.Projector(q, complement)
    pg = p @ rng.standard_normal(n)
    w = p @ x0 + sigma * pg
    if complement:
        a = np.linalg.qr(q, mode="complete")[0][:, kq:].T
    else:
        a = q.T
    y = a @ x0 + sigma * (a @ pg)
    ball = lasso.ball_for(inst)
    on_p = lasso.solve_constrained_lasso(p, w, ball, x_init=x0)
    on_a = lasso.solve_constrained_lasso(a, y, ball, x_init=x0)
    assert on_p.converged and on_a.converged
    assert np.linalg.norm(on_p.x - on_a.x) <= 1e-9
    # below the transition the optimal cost is zero, reached only to rounding
    # of ||y||^2, where a relative comparison says nothing
    floor = 1e-20 * float(y @ y)
    assert on_p.cost == pytest.approx(on_a.cost, rel=1e-9, abs=floor)
    for x in (on_p.x, x0):
        rp, ra = w - p @ x, y - a @ x
        assert float(rp @ rp) == pytest.approx(float(ra @ ra), rel=1e-12, abs=floor)


def test_solver_flags_non_convergence(monkeypatch):
    inst = signals.make_sparse(30, 2, "unit", seed=16)
    a = lasso.sample_partial_unitary(10, 30, seed=17)
    y = a @ inst.values + 0.01 * np.random.default_rng(18).standard_normal(10)
    monkeypatch.setattr(lasso, "MAX_ITERS", 1)
    sol = lasso.solve_constrained_lasso(a, y, lasso.ball_for(inst))
    assert not sol.converged
    assert sol.iterations == 1
    assert sol.finish == "limit"


def _l1_problem(kind, n, m_frac, seed, noise):
    """An l1 LASSO problem: (operator, y, gradient map x -> A^T (y - A x) from an
    explicit matrix, least-norm zero-gradient point). ``kind`` is a Gaussian
    matrix with round(m_frac n) rows, or a ``Projector`` P = Q Q^T
    ("projector") or I - Q Q^T ("complement") with y = P x0 + noise P g."""
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(n) * (rng.random(n) < 0.4)
    if kind == "gaussian":
        a = rng.standard_normal((max(1, round(m_frac * n)), n))
        y = a @ x0 + noise * rng.standard_normal(a.shape[0])
        return a, y, lambda x: a.T @ (y - a @ x), np.linalg.lstsq(a, y, rcond=None)[0]
    complement = kind == "complement"
    kq = min(n - 1, max(1, round(m_frac * n / 4)))
    q = signals.haar_columns(rng, n, kq)
    p = lasso.Projector(q, complement)
    explicit = np.eye(n) - q @ q.T if complement else q @ q.T
    y = p @ x0 + noise * (p @ rng.standard_normal(n))
    return p, y, lambda x: y - explicit @ x, y


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["gaussian", "projector", "complement"]), n=st.integers(2, 40),
       m_frac=st.floats(0.2, 2.0), seed=st.integers(0, 2**20), frac=st.floats(0.05, 1.5),
       noise=st.sampled_from([0.0, 0.01, 1.0]))
def test_face_finish_is_certified_and_no_costlier_than_fista(kind, n, m_frac, seed, frac,
                                                             noise):
    # frac below 1 puts the optimum on the sphere; above it the least-norm
    # zero-gradient point lies inside the ball, and so does an optimum
    a, y, grad, x_ref = _l1_problem(kind, n, m_frac, seed, noise)
    ball = lasso.BallSpec("l1", frac * float(np.abs(x_ref).sum()))
    sol = lasso.solve_constrained_lasso(a, y, ball)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lasso, "HOLD", lasso.MAX_ITERS + 1)
        fista = lasso.solve_constrained_lasso(a, y, ball)
    assert sol.converged and fista.converged
    if sol.finish != "face":
        # no certified face: FISTA's own run, declined attempts and all
        assert np.array_equal(sol.x, fista.x)
        assert (sol.iterations, sol.cost, sol.gap, sol.finish) == (
            fista.iterations, fista.cost, fista.gap, fista.finish)
        return
    assert sol.iterations < fista.iterations
    # a cost is evaluated from the residual y - A x, so its rounding scales with
    # ||y||^2, not with the cost: at the optimum the two runs tie to that rounding
    assert sol.cost <= fista.cost + 1e-12 * float(y @ y)
    # the KKT certificate, recomputed from the explicit matrix: with
    # mu = max |g|, g_S = mu sign(x_S) (so |g_i| <= mu off S), x in the ball,
    # and on its sphere unless mu vanishes
    x = sol.x
    g = grad(x)
    on = x != 0
    mu = float(np.abs(g).max())
    tol = 1e-10 * float(np.abs(grad(np.zeros_like(x))).max())
    norm = float(np.abs(x).sum())
    assert np.abs(g[on] - mu * np.sign(x[on])).max(initial=0.0) <= tol
    assert norm <= ball.radius * (1 + 1e-12)
    assert mu <= tol or norm >= ball.radius * (1 - 1e-12)
    # the reported gap is still the Frank-Wolfe gap at the returned point
    assert sol.gap == pytest.approx(2 * (ball.radius * mu - float(g @ x)), rel=1e-6,
                                    abs=tol * ball.radius)


@pytest.mark.parametrize("breaks", ["sign", "multiplier"])
def test_declined_face_leaves_fista_bit_for_bit(monkeypatch, breaks):
    # an overdetermined Gaussian problem whose optimum sits on the sphere with
    # mu > 0; every face solve is spoiled, so every attempt must be declined
    # and the run must be FISTA's own
    a, y, _, x_ref = _l1_problem("gaussian", 12, 1.5, 41, 0.01)
    ball = lasso.BallSpec("l1", 0.5 * float(np.abs(x_ref).sum()))
    assert lasso.solve_constrained_lasso(a, y, ball).finish == "face"
    face = lasso._face
    spoiled = []

    def spoiled_face(signs, on_sphere, radius, gram, b):
        u, mu = face(signs, on_sphere, radius, gram, b)
        if breaks == "sign":
            u[np.argmax(np.abs(u))] *= -1
        else:
            mu = -mu
        spoiled.append(mu)
        return u, mu

    monkeypatch.setattr(lasso, "_face", spoiled_face)
    sol = lasso.solve_constrained_lasso(a, y, ball)
    assert spoiled
    if breaks == "multiplier":
        assert all(mu < 0 for mu in spoiled)
    monkeypatch.setattr(lasso, "HOLD", lasso.MAX_ITERS + 1)
    fista = lasso.solve_constrained_lasso(a, y, ball)
    assert sol.finish == fista.finish == "step"
    assert np.array_equal(sol.x, fista.x)
    assert (sol.iterations, sol.restarts, sol.cost, sol.gap) == (
        fista.iterations, fista.restarts, fista.cost, fista.gap)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["gaussian", "projector", "complement"]), n=st.integers(2, 40),
       m_frac=st.floats(0.2, 2.0), seed=st.integers(0, 2**20), frac=st.floats(0.05, 1.5),
       noise=st.sampled_from([0.0, 0.01, 1.0]))
def test_walked_faces_are_positive_cost_optima(kind, n, m_frac, seed, frac, noise):
    a, y, grad, x_ref = _l1_problem(kind, n, m_frac, seed, noise)
    ball = lasso.BallSpec("l1", frac * float(np.abs(x_ref).sum()))
    sol = lasso.solve_constrained_lasso(a, y, ball)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lasso, "WALK", 1)
        single = lasso.solve_constrained_lasso(a, y, ball)
    assert sol.converged and single.converged
    if sol.iterations == single.iterations:
        # the walk declined, or its first face was certified: the same run
        assert np.array_equal(sol.x, single.x)
        assert (sol.restarts, sol.cost, sol.gap, sol.finish) == (
            single.restarts, single.cost, single.gap, single.finish)
        return
    # a walked face ended the run, before FISTA's own attempt would have
    assert sol.finish == "face" and sol.iterations < single.iterations
    # x_ref has zero residual and lies in the ball: the optimal cost is zero
    r_ref = y - a @ x_ref
    assert not (frac >= 1 and float(r_ref @ r_ref) <= 1e-20 * float(y @ y))
    # the KKT certificate from the explicit matrix, with mu = max |g| > 0: x on
    # the sphere and g_S = mu sign(x_S)
    x = sol.x
    g = grad(x)
    on = x != 0
    mu = float(np.abs(g).max())
    tol = 1e-10 * float(np.abs(grad(np.zeros_like(x))).max())
    assert mu > tol
    assert np.abs(g[on] - mu * np.sign(x[on])).max() <= tol
    assert abs(float(np.abs(x).sum()) - ball.radius) <= 1e-12 * ball.radius


def test_walk_leaves_a_zero_cost_face_to_fista():
    # min (2 - x_0 - 2 x_1)^2 over ||x||_1 <= 1.5 has optimal cost 0. x's face
    # {0} gives u = (1.5, 0) with mu = 0.5 and |g_1| = 1 > mu, so the walk adds
    # coordinate 1 and reaches the zero-cost face {0, 1}: u = (1, 0.5), mu = 0,
    # certified, but only FISTA's own attempt may finish there
    a, y, radius = np.array([[1.0, 2.0]]), np.array([2.0]), 1.5
    b = a.T @ y

    def gram(support):
        return a[:, support].T @ a[:, support]

    x, zero = np.array([1.5, 0.0]), np.array([0.75, 0.75])
    u, mu = lasso._face(np.sign(zero), True, radius, gram, b)
    assert mu == 0.0
    assert lasso._face_walk(a, y, b, radius, np.sign(x), x, gram) is None
    # a walk's first face is accepted on its certificate alone, and with mu = 0
    # the walk goes no further: so {0, 1} is certified
    found = lasso._face_walk(a, y, b, radius, np.sign(zero), zero, gram)
    assert found is not None and np.array_equal(found[0], u)


def test_walk_keeps_every_trial_statistic_and_never_adds_iterations(monkeypatch):
    # around and above the transition of sparse:500:20 (cone MSD ~86), where
    # most trials finish on a face; every walked face is the one FISTA would
    # have certified later, so only the iteration and restart counts move
    inst = signals.make_sparse(500, 20, "unit", seed=1)
    m_grid = list(range(80, 201, 20))

    def sweep():
        return lasso.sweep_measurements(inst, m_grid, trials=10, seed=7,
                                        d_reference=86.0, collect=True)[1]

    walked = sweep()
    monkeypatch.setattr(lasso, "WALK", 1)
    single = sweep()
    saved = 0
    for m in m_grid:
        assert len(walked[m]) == len(single[m]) == 10
        for d, e in zip(walked[m], single[m]):
            assert dataclasses.replace(d, iterations=0, restarts=0) == dataclasses.replace(
                e, iterations=0, restarts=0)
            assert d.iterations <= e.iterations
            saved += e.iterations - d.iterations
    assert saved > 0


def test_every_settled_pattern_walks(monkeypatch):
    # in trial 10 of sparse:500:20 at m = 100 the walk of the first settled
    # sign pattern is declined, and only a later pattern's walk reaches the
    # optimum: at 1,023 iterations, against 2,527 when each pattern solves
    # its own face alone, so a run that walked only once would tie
    inst = signals.make_sparse(500, 20, "unit", seed=1)

    def trial_10():
        diags = lasso.sweep_measurements(inst, [100], trials=11, seed=7,
                                         d_reference=89.0, collect=True)[1][100]
        assert len(diags) == 11
        return diags[10]

    walked = trial_10()
    monkeypatch.setattr(lasso, "WALK", 1)
    single = trial_10()
    assert walked.iterations < single.iterations
    assert dataclasses.replace(walked, iterations=0, restarts=0) == dataclasses.replace(
        single, iterations=0, restarts=0)


# ---------------------------------------------------------------------------
# point estimates and sweeps
# ---------------------------------------------------------------------------

def test_sweep_energy_split_below_transition():
    # cone MSD for sparse n=300, k=10 is ~45, so m=20 sits well below the
    # transition: eta tracks m and the cost vanishes
    inst = signals.make_sparse(300, 10, "unit", seed=19)
    sigma = lasso.default_sigma(inst)
    (rec,), diags = lasso.sweep_measurements(
        inst, [20], sigma, trials=20, matrix_kind="unitary", seed=20,
        d_reference=45.0, collect=True,
    )
    diags = diags[20]
    for d in diags:
        assert d.cost <= d.cost_at_truth
        assert d.energy <= d.noise_energy * (1 + 1e-6)
    assert abs(rec.eta_mean - 20.0) <= 3 * rec.eta_stderr
    assert rec.f_mean <= 1e-6 * 20


def test_sweep_sum_rule_above_transition():
    inst = signals.make_sparse(300, 10, "unit", seed=19)
    sigma = lasso.default_sigma(inst)
    (rec,), diags = lasso.sweep_measurements(
        inst, [150], sigma, trials=20, matrix_kind="unitary", seed=21,
        d_reference=45.0, collect=True,
    )
    diags = diags[150]
    sums = np.array([d.energy for d in diags])
    se = sums.std(ddof=1) / math.sqrt(sums.size)
    assert abs(sums.mean() - 150) <= 3 * se
    assert rec.predicted_eta == pytest.approx(45.0)
    # above the transition the optimum is unique, and every trial ends on its
    # certified face
    assert {d.finish for d in diags} == {"face"}
    # eta settles near the cone MSD once m clears the transition
    assert abs(rec.eta_mean - 45.0) <= 3 * rec.eta_stderr + 0.05 * math.sqrt(300)


def test_full_isometry_point_e_equals_eta():
    inst = signals.make_sparse(50, 3, "unit", seed=22)
    sigma = lasso.default_sigma(inst)
    (rec,), diags = lasso.sweep_measurements(
        inst, [50], sigma, trials=10, matrix_kind="unitary", seed=23,
        d_reference=20.0, collect=True,
    )
    diags = diags[50]
    for d in diags:
        assert d.e == pytest.approx(d.eta, rel=1e-6)


def test_complement_draw_statistics():
    # 2m > n: each trial draws the 50-column complement basis C and g in R^n
    # and uses P g = (I - C C^T) g as its noise; ||P g||^2 is chi-square with
    # m degrees of freedom, where ||g||^2 would have n
    inst = signals.make_sparse(300, 10, "unit", seed=19)
    m = 250
    (rec,), diags = lasso.sweep_measurements(
        inst, [m], lasso.default_sigma(inst), trials=40, matrix_kind="unitary", seed=36,
        d_reference=45.0, collect=True,
    )
    diags = diags[m]
    assert rec.excluded_trials == 0
    noise = np.array([d.noise_energy for d in diags])
    assert abs(noise.mean() - m) <= 4 * noise.std(ddof=1) / math.sqrt(noise.size)
    for d in diags:
        assert d.cost <= d.cost_at_truth
        assert d.energy <= d.noise_energy * (1 + 1e-6)
    sums = np.array([d.energy for d in diags])
    assert abs(sums.mean() - m) <= 3 * sums.std(ddof=1) / math.sqrt(sums.size)


def test_sweep_trials_match_householder_bases(monkeypatch):
    # above the transition (cone MSD of sparse:100:5 is ~25) each trial's
    # optimum is unique, so the Cholesky QR basis, equal to the Householder one
    # up to rounding, gives every trial the same statistics and finish; y still
    # lies in range(P) to the solver's 1e-24 check
    inst = signals.make_sparse(100, 5, "unit", seed=7)

    def sweep():
        return lasso.sweep_measurements(inst, [50, 80], trials=10, seed=7,
                                        d_reference=25.0, collect=True)[1]

    ours = sweep()
    monkeypatch.setattr(lasso, "haar_columns", householder_haar_columns)
    ref = sweep()
    for m in (50, 80):
        assert len(ours[m]) == len(ref[m]) == 10
        for d, e in zip(ours[m], ref[m]):
            assert d.finish == e.finish
            for name in ("eta", "f", "e"):
                assert getattr(d, name) == pytest.approx(getattr(e, name), rel=1e-9), name


def test_iteration_tail_near_transition():
    # m = 80 sits just below the cone MSD (~86) of sparse:500:20, where
    # unaccelerated projected gradient needed up to 379,538 iterations
    inst = signals.make_sparse(500, 20, "unit", seed=1)
    (rec,), diags = lasso.sweep_measurements(
        inst, [80], lasso.default_sigma(inst), trials=10, matrix_kind="unitary",
        seed=34, d_reference=89.0, collect=True,
    )
    diags = diags[80]
    assert rec.excluded_trials == 0
    assert max(d.iterations for d in diags) < 10_000
    for d in diags:
        assert d.cost <= d.cost_at_truth
        assert d.energy <= d.noise_energy * (1 + 1e-6)


def test_run_quality_error_on_starved_solver(monkeypatch):
    inst = signals.make_sparse(60, 6, "unit", seed=24)
    sigma = lasso.default_sigma(inst)
    monkeypatch.setattr(lasso, "MAX_ITERS", 2)
    with pytest.raises(RunQualityError):
        lasso.sweep_measurements(
            inst, [35], sigma, trials=10, matrix_kind="unitary", seed=25,
            d_reference=30.0, collect=True,
        )


def test_sweep_validation_and_reproducibility():
    inst = signals.make_sparse(40, 3, "unit", seed=26)
    with pytest.raises(ValueError):
        lasso.sweep_measurements(inst, [10, 10], trials=5, seed=1, d_reference=15.0)
    with pytest.raises(ValueError):
        lasso.sweep_measurements(inst, [10, 50], trials=5, seed=1, d_reference=15.0)
    recs1 = lasso.sweep_measurements(inst, [10, 30], trials=5, seed=27, d_reference=15.0)
    recs2 = lasso.sweep_measurements(inst, [10, 30], trials=5, seed=27, d_reference=15.0)
    assert recs1 == recs2
    assert [r.m for r in recs1] == [10, 30]
    assert recs1[0].predicted_eta == pytest.approx(10.0)
    assert recs1[1].predicted_eta == pytest.approx(15.0)


@pytest.fixture
def cone_calls(monkeypatch):
    """The arguments of every cone Monte Carlo the sweep runs while the test runs."""
    calls = []
    cone = lasso.msd_cone

    def counting_cone(*args, **kw):
        calls.append(args)
        return cone(*args, **kw)

    monkeypatch.setattr(lasso, "msd_cone", counting_cone)
    return calls


@pytest.mark.parametrize("kwargs", [
    {"trials": 1},
    {"matrix_kind": "haar"},
    {"sigma": float("nan")},
    {"m_grid": [0, 10]},
    {"m_grid": [40.5, 80]},
    {"m_grid": [40, float("inf")]},
    {"d_reference": float("nan")},
    {"d_reference": float("inf")},
    {"d_reference": -5.0},
], ids=["trials", "matrix-kind", "sigma", "m-range", "m-fraction", "m-inf", "d-reference-nan",
        "d-reference-inf", "d-reference-negative"])
def test_sweep_validates_before_cone_monte_carlo(cone_calls, kwargs):
    inst = signals.make_sparse(500, 20, "unit", seed=1)
    args = {"m_grid": [40, 80], "trials": 2, "seed": 1, **kwargs}
    with pytest.raises(ValueError):
        lasso.sweep_measurements(inst, **args)
    assert cone_calls == []


@pytest.mark.parametrize("trials", [2.5, 3.0, True])
def test_sweep_rejects_non_integral_trials_before_cone_monte_carlo(cone_calls, trials):
    # trials=2.5 once passed the checks and failed in range() only after the
    # 20,000-sample cone Monte Carlo
    inst = signals.make_sparse(500, 20, "unit", seed=1)
    with pytest.raises(TypeError, match="trials"):
        lasso.sweep_measurements(inst, [40, 80], trials=trials, seed=1)
    assert cone_calls == []


def test_gaussian_sweep_runs():
    inst = signals.make_sparse(40, 3, "unit", seed=28)
    recs = lasso.sweep_measurements(inst, [12, 30], trials=5, matrix_kind="gaussian",
                                    seed=29, d_reference=15.0)
    assert all(r.excluded_trials == 0 for r in recs)
    assert recs[1].e_mean < 1e6   # finite error above the transition
