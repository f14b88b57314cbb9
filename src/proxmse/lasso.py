"""Constrained LASSO experiments over random measurement operators.

Solves min_x ||y - A x||^2 subject to f(x) <= f(x0) by accelerated projected
gradient (FISTA, Beck & Teboulle 2009) with the adaptive gradient restart of
O'Donoghue & Candes (2015), for Haar-random partial unitary (rows
orthonormal) or i.i.d. Gaussian A. The solver stops on the length of its
last projected-gradient step, which bounds the first-order optimality of the
returned point; it reports the Frank-Wolfe duality gap there as well. On the
l1 ball it finishes early and exactly: once FISTA's sign pattern settles, it
solves the least-squares problem on that face of the ball, one KKT system
(Osborne, Presnell & Turlach 2000), and returns the solution if an exact
optimality certificate holds there. From a declined face it walks on with
the active-set steps of the same paper: it drops the support coordinate
whose sign breaks first, or adds the coordinate whose gradient most exceeds
the multiplier, and solves the next face, over at most ``WALK`` faces,
accepting a walked face only as a positive-cost optimum on the sphere.
Every settled sign pattern starts such a walk, once.

A partial-unitary problem depends on A only through the projector
P = A^T A and w = A^T y: the gradient is A^T (y - A x) = w - P x, and
||y - A x||^2 = ||w - P x||^2 because A^T is an isometry. Every unitary
trial therefore solves on a ``Projector`` and w. It draws the smaller Haar
basis Q, with k = min(m, n - m) columns, and takes P = Q Q^T when 2m <= n
and P = I - Q Q^T otherwise, so a product with P costs 4nk flops and the QR
is of an n x k matrix with 2k <= n, which ``haar_columns`` factors by
Cholesky QR. The residual w - P x lies in range(P), where the adjoint of P
is the identity, so an iteration costs one product with P.

It then estimates three normalized quantities per measurement count m:

    eta = ||A(x* - x0)||^2 / sigma^2   (projected error; = ||P(x* - x0)||^2 / sigma^2)
    F   = ||y - A x*||^2 / sigma^2     (residual cost; = ||w - P x*||^2 / sigma^2)
    E   = ||x* - x0||^2 / sigma^2      (full error)

eta and F split the noise energy (eta + F = m in expectation) and switch
behavior at m near the cone MSD of the structure: below it eta tracks m and
the cost vanishes; above it eta flattens at the cone MSD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, RunQualityError, require_int, require_nonneg
from .geometry import McConfig, mean_stderr, msd_cone
from .prox import BallSpec, ball_for
from .signals import SignalInstance, haar_columns
from .streams import stream


# the solver's stop rule (see ``solve_constrained_lasso``): a relative step
# length, and the iteration count at which a run ends flagged non-converged
TOL = 1e-12
MAX_ITERS = 600_000
# the face finish: the iterations a sign pattern must hold before its walk
# starts, the relative rounding slack of a face's KKT certificate, and the
# most faces a walk solves
HOLD = 8
SLACK = 1e-12
WALK = 8


@dataclass(frozen=True)
class LassoSolution:
    x: np.ndarray
    cost: float
    iterations: int
    converged: bool
    restarts: int          # momentum restarts
    gap: float             # Frank-Wolfe duality gap at x, bounds cost - min cost
    finish: str            # "face", "step", "floor" or "limit": what ended the run


@dataclass(frozen=True)
class TrialDiagnostics:
    eta: float
    f: float
    e: float
    energy: float          # (||A(x*-x0)||^2 + ||y - A x*||^2) / sigma^2
    noise_energy: float    # ||v||^2 (Gaussian A), or ||P g||^2 = ||A^T v||^2 (unitary)
    cost: float
    cost_at_truth: float
    iterations: int
    restarts: int
    gap: float
    finish: str            # "face", "step" or "floor" (see LassoSolution)


@dataclass(frozen=True)
class LassoSweepRecord:
    m: int
    eta_mean: float
    eta_stderr: float
    f_mean: float
    f_stderr: float
    e_mean: float
    e_stderr: float
    predicted_eta: float
    trials: int
    excluded_trials: int


class _Inclusion:
    """The inclusion of range(P) into R^n, the adjoint of P as a map onto range(P)."""

    def __matmul__(self, r: np.ndarray) -> np.ndarray:
        return r


class Projector:
    """The orthogonal projector onto range(Q), or onto its complement.

    Q is an n x k matrix with orthonormal columns. P is Q Q^T, applied as
    Q (Q^T x), or with ``complement`` I - Q Q^T, applied as x - Q (Q^T x):
    4nk flops a product against 2n^2 for the explicit matrix. The complement
    projector of an empty Q is the identity.

    As a trial's operator, P maps R^n onto range(P), and its adjoint there
    is the inclusion: ``P.T @ r`` returns r. That equals P r exactly for
    every r in range(P), which holds the residuals w - P z that
    ``solve_constrained_lasso`` passes to it.
    """

    T = _Inclusion()

    def __init__(self, q: np.ndarray, complement: bool):
        self.q = q
        self.complement = complement
        self.shape = (q.shape[0], q.shape[0])

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        qx = self.q @ (self.q.T @ x)
        return x - qx if self.complement else qx

    def gram(self, support: np.ndarray) -> np.ndarray:
        """The block P_SS: Q_S Q_S^T, or I - Q_S Q_S^T, in |S|^2 k flops."""
        qs = self.q[support]
        g = qs @ qs.T
        return np.eye(support.size) - g if self.complement else g


def sample_partial_unitary(m: int, n: int, seed: int) -> np.ndarray:
    """Haar-random m x n matrix with orthonormal rows (A A^T = I_m)."""
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    return haar_columns(stream(seed), n, m).T


def _operator_step(a, y: np.ndarray):
    """The operator as the solver applies it; its step 1/||A||^2, the 1/L that
    the solver's step-length bound assumes: 1 for a ``Projector``
    (no SVD), else from ``np.linalg.norm(A, 2)``, exact; and its Gram block,
    the map S -> (A^T A)_SS that the face finish solves with."""
    if isinstance(a, Projector):
        outside = y - a @ y
        if float(outside @ outside) > 1e-24 * float(y @ y):
            raise ValueError(f"y has a part of norm {float(np.linalg.norm(outside)):.3g} "
                             "outside range(P)")
        return a, 1.0, a.gram
    a = np.asarray(a, dtype=float)
    norm_sq = float(np.linalg.norm(a, 2)) ** 2
    if norm_sq == 0.0:
        raise NumericalError("A is zero: no step size")
    return a, 1.0 / norm_sq, lambda support: a[:, support].T @ a[:, support]


def solve_constrained_lasso(a: np.ndarray, y: np.ndarray, ball: BallSpec,
                            x_init: np.ndarray | None = None) -> LassoSolution:
    """FISTA with gradient restart for min_x ||y - A x||^2 over the ball.

    ``a`` is a matrix or a ``Projector`` P (see ``_operator_step``). For P the
    step is 1, exact as ||P|| = 1, and y must lie in range(P): the solver
    applies P.T, the inclusion, to residuals y - P z, so it raises ValueError
    when y - P y exceeds 1e-12 ||y||.

    From x = project(x_init) (zero by default) it iterates

        x+ = project(z + step * A^T (y - A z)),
        z  = x+ + beta_t (x+ - x),  beta_t = (t - 1) / t+,  t+ = (1 + sqrt(1 + 4 t^2)) / 2,

    carrying A x and A z along (A z is the same combination of A x+ and
    A x), so one iteration costs one A^T and one A product, and on a
    ``Projector`` one product with P. The momentum restarts (t = 1, z = x+)
    when (x+ - z) . (x+ - x) < 0, that is when the step points against the
    momentum (O'Donoghue & Candes 2015).

    It has converged once its last projected-gradient step, taken from the
    extrapolated point z to x+, satisfies ||x+ - z|| <= ``TOL`` * ||x+||. That
    step bounds optimality: for every feasible u,
    <grad(x+), x+ - u> <= (4/step) ||x+ - z|| ||x+ - u||. It also converges at
    the cost floor, 1e-14 times the cost at the projected start (1e-14 ||y||^2
    from 0), which matters when the optimal cost is exactly zero: the iterates
    then approach the zero-cost set forever and the step test alone may never
    fire. After ``MAX_ITERS`` iterations it stops flagged non-converged (the
    caller decides what to do). It compares no costs while iterating: the
    residual y - A x cancels, so near the optimum cost differences are
    rounding noise and a cost-based rule stops at the wrong point. Nor does
    it stop on the Frank-Wolfe gap, which closes slowly while the support is
    still being found; the gap is only reported, once, at the returned
    point. A run whose final cost exceeds the cost at its projected start is
    flagged non-converged.

    On the l1 ball it also finishes exactly. Proximal-gradient iterates
    identify the optimum's face in finitely many steps (Hare & Lewis 2004),
    and there the problem is one linear system. Once the sign pattern s of
    x+ (its support S and signs) has held for ``HOLD`` iterations in a row,
    and has not been tried before, ``_face_walk`` solves its face with the
    Gram block (A^T A)_SS from ``_operator_step`` (|S|^2 k flops on a
    ``Projector``) and returns the solution if it passes the face's KKT
    certificate. From a declined face it walks on over at most ``WALK``
    faces in all, each on the sphere and accepted only as a positive-cost
    optimum: the face FISTA itself would certify later, whose solution
    depends only on its sign pattern, so the walk returns the same bits in
    fewer iterations; its finish is reported as "face" too. A declined walk
    leaves FISTA's iterate, momentum and counters as they were. The walk
    stops where the multiplier falls to rounding, so a zero-cost optimum
    is left to FISTA and the cost floor. The l1,2 and nuclear faces are not
    linear, so on those balls (``ball.kind`` other than "l1") the solver
    tracks no sign pattern and never finishes this way. ``finish`` says what
    ended the run: "face", "step" (the step-length rule), "floor" (the cost
    floor) or "limit" (``MAX_ITERS``); ``iterations`` counts FISTA
    iterations only.
    """
    y = np.asarray(y, dtype=float)
    a, step, gram = _operator_step(a, y)
    x = np.zeros(a.shape[1]) if x_init is None else np.asarray(x_init, dtype=float)
    x = ball.project(x)
    ax = a @ x
    r = y - ax
    cost = start_cost = float(r @ r)
    floor = 1e-14 * start_cost
    z, az, t = x, ax, 1.0
    converged = cost <= floor
    it = restarts = held = 0
    signs, tried, finish = None, set(), None
    faces = ball.kind == "l1"   # the one ball whose faces are linear
    b = a.T @ y if faces else None
    tol_sq = TOL * TOL
    while not converged and it < MAX_ITERS:
        x_new = ball.project(z + step * (a.T @ (y - az)))
        ax_new = a @ x_new
        r = y - ax_new
        cost = float(r @ r)
        it += 1
        moved = x_new - z
        converged = (float(moved @ moved) <= tol_sq * float(x_new @ x_new)
                     or cost <= floor)
        dx, dax = x_new - x, ax_new - ax
        x, ax = x_new, ax_new
        if faces:
            pattern = np.sign(x)
            held = held + 1 if np.array_equal(pattern, signs) else 1
            signs = pattern
            if held == HOLD and not converged and (key := pattern.tobytes()) not in tried:
                tried.add(key)
                if (face := _face_walk(a, y, b, ball.radius, pattern, x, gram)) is not None:
                    x, r = face
                    cost, converged, finish = float(r @ r), True, "face"
                    break
        if moved @ dx < 0:
            t, z, az = 1.0, x, ax
            restarts += 1
        else:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_next
            t, z, az = t_next, x + beta * dx, ax + beta * dax
    if finish is None:
        finish = "floor" if cost <= floor else "step" if converged else "limit"
    if cost > start_cost:
        converged = False
    g = a.T @ r
    gap = 2.0 * (ball.radius * ball.dual_norm(g) - float(g @ x))
    return LassoSolution(x, cost, it, converged, restarts, gap, finish)


def _face_walk(a, y: np.ndarray, b: np.ndarray, radius: float, signs: np.ndarray,
               x: np.ndarray, gram):
    """Solve the face of the l1 ball that holds FISTA's iterate x, whose sign
    pattern is ``signs``, and walk on over at most ``WALK`` faces in all, the
    active-set steps of Osborne, Presnell & Turlach (2000); b = A^T y.

    Returns (u, y - A u) for a certified optimum u, else None. A face's
    solution u, with multiplier mu (``_face``), is certified when it keeps
    the pattern s (and so the support S), mu >= 0, s . u = ||u||_1 <= radius,
    and the gradient g = A^T (y - A u) has g_S = mu s_S and |g_i| <= mu off
    S; the last three hold to within ``SLACK`` of the radius or of max |b|,
    the scale of the rounding in g. The first face is x's own, on the sphere
    unless ||x||_1 is below the radius by more than 1e-12 of it, and is
    accepted on its certificate alone. Each later face is on the sphere and
    is accepted only if also mu > ``SLACK`` max |b|: a positive-cost
    optimum, which is the face FISTA would certify later, so u has the same
    bits. From a declined face with such a mu (the walk stops at any other)
    the step is one of two. If a support coordinate of u has the wrong sign,
    the walk moves from its current point toward u, stops at the first sign
    change and drops that coordinate. Otherwise it adds the off-support
    coordinate with the largest |g_j| > mu, with the sign of g_j.
    """
    slack = SLACK * float(np.abs(b).max())
    signs, point = signs.copy(), x   # the solver keeps its pattern to compare
    on_sphere = float(signs @ x) >= radius * (1 - 1e-12)
    for walked in range(WALK):
        u, mu = _face(signs, on_sphere, radius, gram, b)
        kept = np.array_equal(np.sign(u), signs)
        if kept and mu >= 0:
            r = y - a @ u
            g = a.T @ r
            if (float(signs @ u) <= radius * (1 + SLACK) and (mu > slack or not walked)
                    and (np.abs(g - mu * signs) <= slack + mu * (signs == 0)).all()):
                return u, r
        if not mu > slack:
            return None
        if not kept:
            broken = np.flatnonzero(np.sign(u) != signs)   # u is zero off S
            # 0 <= point_i / (point_i - u_i) <= 1 where u_i's sign breaks s_i
            den = point[broken] - u[broken]
            frac = np.divide(point[broken], den, out=np.zeros(den.size), where=den != 0)
            drop = int(np.argmin(frac))
            point = point + max(float(frac[drop]), 0.0) * (u - point)
            point[broken[drop]] = signs[broken[drop]] = 0.0
        else:   # kept and mu > slack >= 0, so g is this face's gradient
            off = np.where(signs == 0, np.abs(g), 0.0)
            add = int(np.argmax(off))
            if not off[add] > mu:
                return None
            point = u
            signs[add] = np.sign(g[add])
        on_sphere = True
    return None


def _face(signs: np.ndarray, on_sphere: bool, radius: float, gram, b: np.ndarray):
    """The least-squares point on the face of the l1 ball with sign pattern
    s = ``signs``, and its multiplier: (u, mu).

    With S the support of s, the point minimises ||y - A u||^2 over u zero
    off S. On the sphere it keeps s . u = radius, which is one (|S|+1)-square
    KKT system (Osborne, Presnell & Turlach 2000)

        [[G_SS, s_S], [s_S^T, 0]] [u_S; mu] = [b_S; radius],

    with G_SS = ``gram(S)`` = (A^T A)_SS and b = A^T y; inside the ball it
    solves G_SS u_S = b_S and takes mu = 0. The result is not checked: u may
    leave the face, and mu may be negative; a singular system gives NaN.
    """
    support = np.flatnonzero(signs)
    k = support.size
    if on_sphere:
        kkt = np.zeros((k + 1, k + 1))
        kkt[:k, :k] = gram(support)
        kkt[:k, k] = kkt[k, :k] = signs[support]
        rhs = np.append(b[support], radius)
    else:
        kkt, rhs = gram(support), b[support]
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        sol = np.full(rhs.size, np.nan)
    u = np.zeros(signs.size)
    u[support] = sol[:k]
    return u, float(sol[k]) if on_sphere else 0.0


def default_sigma(inst: SignalInstance, scale: float = 1e-4) -> float:
    """Operational small-noise level: scale times the signal's Euclidean norm."""
    return float(scale * np.linalg.norm(inst.values))


def sweep_measurements(inst: SignalInstance, m_grid, sigma: float | None = None,
                       trials: int = 50, matrix_kind: str = "unitary", seed: int = 0,
                       mc: McConfig | None = None,
                       d_reference: float | None = None,
                       collect: bool = False):
    """One LassoSweepRecord of (eta, F, E) per measurement count in ascending m_grid.

    Each trial draws a fresh operator and noise vector from the stream keyed
    (seed, m, trial), solves from the feasible warm start x0 (so the cost can
    never exceed the cost at the truth), and accumulates the three normalized
    statistics. A Gaussian trial draws A and v ~ N(0, I_m). A unitary trial
    draws the smaller Haar basis Q, with k = min(m, n - m) columns: that of
    range(A^T), P = Q Q^T, when 2m <= n, and that of its complement, itself
    Haar, P = I - Q Q^T, otherwise; as 2k <= n, ``haar_columns`` builds Q
    by Cholesky QR. The trial then draws g ~ N(0, I_n) and solves on the
    ``Projector`` P and w = P x0 + sigma P g in place of A and y. P g has the
    law N(0, P) of A^T v, and eta, F, E and the noise energy
    ||P g||^2 = ||A^T v||^2 are functions of (P, A^T y), so each trial's
    statistics have the distribution of the m x n draw. At m = n, Q is empty
    and P = I. Every trial runs the one solver stop rule, ``TOL`` and
    ``MAX_ITERS``. Non-converged trials are excluded but counted; more than
    10% exclusions at any m raise RunQualityError. ``predicted_eta`` is
    min(m, D) with D the cone MSD: ``d_reference`` (finite and nonnegative),
    or else estimated once via ``mc`` (default 20,000 samples) and shared by
    every record; every argument is checked before that and before any
    trial, and each m must be a whole number. ``sigma`` defaults to
    ``default_sigma(inst)``.

    E is not always a property of the problem. Where the set
    {x : A x = y, f(x) <= f(x0)} holds more than one point, at and below the
    transition, every point of it has zero cost, and E = ||x* - x0||^2 / sigma^2
    depends on which of them the solver stops at, so rounding in Q moves it
    by more than its last digits; eta and F do not, since A x* and the cost
    are the same at all of them. On the l1 ball such trials
    end on the cost floor, so E is taken at FISTA's iterate there; a face
    finish reports the solution of its face's KKT system instead, and
    ``TrialDiagnostics.finish`` says which. In the sparse:500:20 sweep at
    m = 20 to 100 (seed 7, 50 trials each) every zero-cost trial ended on the
    floor, and only trials with a positive optimal cost finished on a face.

    Returns the list of records, or (records, {m: diagnostics of the
    converged trials}) if ``collect``.
    """
    n = inst.ambient_dim
    if not all(float(m).is_integer() for m in m_grid):
        raise ValueError(f"measurement counts must be integers, got m grid {list(m_grid)}")
    m_grid = [int(m) for m in m_grid]
    if any(m2 <= m1 for m1, m2 in zip(m_grid, m_grid[1:])):
        raise ValueError("m grid must be sorted strictly ascending")
    if m_grid and not (1 <= m_grid[0] and m_grid[-1] <= n):
        raise ValueError(f"need 1 <= m <= n = {n}, got m grid {m_grid}")
    trials = require_int(trials, "trials", 2)
    sigma = default_sigma(inst) if sigma is None else sigma
    if not (sigma > 0 and math.isfinite(sigma)):
        raise ValueError(f"sigma must be finite and positive, got {sigma!r}")
    if matrix_kind not in ("unitary", "gaussian"):
        raise ValueError(f"unknown matrix kind {matrix_kind!r}")
    if d_reference is not None:
        d_reference = require_nonneg(d_reference, "d_reference")
    else:
        d_reference = msd_cone(inst.structure, mc or McConfig(samples=20_000, seed=seed)).mean
    ball = ball_for(inst)
    x0 = inst.values
    s2 = sigma * sigma
    records, all_diags = [], {}
    for m in m_grid:
        diags = all_diags[m] = []
        for ti in range(trials):
            rng = stream(seed, m, ti)
            if matrix_kind == "gaussian":
                a = rng.standard_normal((m, n))
                v = rng.standard_normal(m)
            else:
                # solve on (P, w): v = P g ~ N(0, P), the law of A^T v
                complement = 2 * m > n
                a = Projector(haar_columns(rng, n, n - m if complement else m), complement)
                v = a @ rng.standard_normal(n)
            y = a @ x0 + sigma * v
            # from x0 the cost floor is 1e-14 sigma^2 ||v||^2: stopping on it perturbs
            # the per-trial energy identity by at most ~2e-7 of the noise energy
            sol = solve_constrained_lasso(a, y, ball, x_init=x0)
            if not sol.converged:
                continue
            err = sol.x - x0
            proj_err = a @ err
            eta = float(proj_err @ proj_err) / s2
            f_val = sol.cost / s2
            e_val = float(err @ err) / s2
            diags.append(TrialDiagnostics(
                eta=eta, f=f_val, e=e_val, energy=eta + f_val,
                noise_energy=float(v @ v), cost=sol.cost,
                cost_at_truth=s2 * float(v @ v),
                iterations=sol.iterations, restarts=sol.restarts, gap=sol.gap,
                finish=sol.finish,
            ))
        excluded = trials - len(diags)
        if excluded > 0.1 * trials:
            raise RunQualityError(f"{excluded}/{trials} trials failed to converge at m={m}")
        eta_mean, eta_stderr = mean_stderr([d.eta for d in diags])
        f_mean, f_stderr = mean_stderr([d.f for d in diags])
        e_mean, e_stderr = mean_stderr([d.e for d in diags])
        records.append(LassoSweepRecord(
            m=m, eta_mean=eta_mean, eta_stderr=eta_stderr,
            f_mean=f_mean, f_stderr=f_stderr, e_mean=e_mean, e_stderr=e_stderr,
            predicted_eta=float(min(m, d_reference)), trials=trials - excluded,
            excluded_trials=excluded,
        ))
    return (records, all_diags) if collect else records
