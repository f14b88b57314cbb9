"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion. The Monte Carlo seeds are fixed, so the whole suite is
deterministic; the heavier criteria also enforce their runtime budgets.
"""

import math
import time

import numpy as np
import pytest

from oracles import (
    brute_block,
    brute_lowrank_codim1,
    brute_sparse,
    brute_weighted,
    combined_se,
    grid_prox_scalar,
    soft_tail_moment_quadrature,
)
from proxmse import cli, denoise, geometry, lasso, prox, signals
from proxmse.geometry import McConfig

MC_SEED = 11
SWEEP_SEED = 7


def criterion(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num}: {status} - {description}"
    if detail:
        line += f" | {detail}"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared expensive estimates
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cone_sparse():
    """Cone MSD for sparse n=500, k in {20,40,60}: estimate and wall time."""
    out = {}
    for k in (20, 40, 60):
        inst = signals.make_sparse(500, k, "unit", seed=1)
        t0 = time.time()
        est = geometry.msd_cone(inst.structure, McConfig(samples=100_000, seed=MC_SEED))
        out[k] = (est, time.time() - t0)
    return out


@pytest.fixture(scope="module")
def lasso_sweep(cone_sparse):
    inst = signals.make_sparse(500, 20, "unit", seed=1)
    d_ref = cone_sparse[20][0].mean
    t0 = time.time()
    records, diags = lasso.sweep_measurements(
        inst, list(range(20, 401, 20)), trials=50, matrix_kind="unitary",
        seed=SWEEP_SEED, d_reference=d_ref, collect=True,
    )
    return records, diags, time.time() - t0


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_cone_msd_sparse(cone_sparse):
    refs = {20: 89.0, 40: 142.0, 60: 186.0}
    details = []
    ok = True
    for k, ref in refs.items():
        est, elapsed = cone_sparse[k]
        rel = est.mean / ref - 1
        ok &= abs(rel) <= 0.03 and elapsed < 60
        details.append(f"k={k}: {est.mean:.2f} ({rel:+.2%}, {elapsed:.0f}s)")
    criterion(1, "sparse cone MSD within 3% of 89/142/186", ok, "; ".join(details))


def test_criterion_02_cone_msd_lowrank():
    inst = signals.make_low_rank(30, 4, seed=5)
    t0 = time.time()
    est = geometry.msd_cone(inst.structure, McConfig(samples=20_000, seed=MC_SEED))
    elapsed = time.time() - t0
    rel = est.mean / 389.0 - 1
    criterion(2, "low-rank cone MSD within 5% of 389",
              abs(rel) <= 0.05 and elapsed < 300,
              f"{est.mean:.2f} ({rel:+.2%}, {elapsed:.0f}s)")


def test_criterion_03_table1_dominance():
    mc = McConfig(samples=20_000, seed=MC_SEED)
    cases = [
        signals.make_sparse(500, 20, "unit", seed=1).structure,
        signals.make_low_rank(30, 4, seed=5).structure,
        signals.make_block_sparse(50, 10, 5, seed=2).structure,
    ]
    ok = True
    worst = np.inf
    for s in cases:
        thr = geometry.table1_threshold(s)
        lams = [thr + 0.3 * j for j in range(10)]
        for est in geometry.msd_lambda_curve(s, lams, mc):
            margin = geometry.table1_bound(s, est.lam) - (est.mean - 3 * est.stderr)
            worst = min(worst, margin)
            ok &= margin >= 0
    criterion(3, "closed-form bound dominates MC at 10 scales per structure",
              ok, f"worst margin {worst:.3f}")


def test_criterion_04_exact_vs_mc_l1():
    for lam in (0.0, 0.3, 0.9, 1.7, 2.5, 4.0):
        quad = soft_tail_moment_quadrature(lam)
        assert abs(geometry.soft_tail_moment(lam) - quad) <= 1e-10 * quad
    rng = np.random.default_rng(2024)
    ok = True
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 501))
        k = int(rng.integers(1, n + 1))
        lam = float(rng.uniform(0.0, 3.0))
        inst = signals.make_sparse(n, k, seed=int(rng.integers(10_000)))
        est = geometry.msd_lambda(inst.structure, lam, McConfig(samples=20_000, seed=MC_SEED))
        exact = geometry.msd_lambda_exact_l1(n, k, lam)
        pull = abs(est.mean - exact) / est.stderr if est.stderr > 0 else 0.0
        worst = max(worst, pull)
        ok &= abs(est.mean - exact) <= 3 * est.stderr
    criterion(4, "exact l1 curve matches MC within 3 stderr on 20 random triples",
              ok, f"worst pull {worst:.2f} stderr (psi validated to 1e-8)")


def test_criterion_05_regularized_sharpness():
    inst = signals.make_sparse(200, 10, "uniform", seed=3)
    grid = denoise.default_sigma_grid(inst)
    t0 = time.time()
    ok = True
    details = []
    for lam in (1.0, 2.0, 3.0):
        run = denoise.run_regularized(inst, lam, grid, trials=500, seed=MC_SEED)
        ref = geometry.msd_lambda(inst.structure, lam,
                                  McConfig(samples=100_000, seed=MC_SEED))
        rec = run.records[0]
        rel = rec.nmse_mean / ref.mean - 1
        ok &= abs(rel) <= 0.05
        for a, b in zip(run.records, run.records[1:]):
            ok &= b.nmse_mean <= a.nmse_mean + 3 * combined_se(a.nmse_stderr, b.nmse_stderr)
        details.append(f"lam={lam}: NMSE {rec.nmse_mean:.2f} vs D {ref.mean:.2f} ({rel:+.2%})")
    elapsed = time.time() - t0
    ok &= elapsed < 60
    criterion(5, "small-sigma NMSE within 5% of the scale MSD and monotone in sigma",
              ok, "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_06_constrained_sharpness(cone_sparse):
    inst = signals.make_sparse(500, 20, "unit", seed=1)
    grid = denoise.default_sigma_grid(inst)
    run = denoise.run_constrained(inst, grid, trials=500, seed=MC_SEED)
    cone = cone_sparse[20][0]
    rec = run.records[0]
    rel = rec.nmse_mean / cone.mean - 1
    criterion(6, "constrained NMSE at smallest sigma within 5% of the cone MSD",
              abs(rel) <= 0.05,
              f"NMSE {rec.nmse_mean:.2f} vs cone {cone.mean:.2f} ({rel:+.2%})")


def test_criterion_07_mixed_upper_bound():
    inst = signals.nonnegative(signals.make_sparse(200, 10, "uniform", seed=3))
    grid = denoise.default_sigma_grid(inst)
    run = denoise.run_mixed_nonneg_sparse(inst, 1.5, grid, trials=400, seed=MC_SEED)
    ok = True
    worst = np.inf
    for rec in run.records:
        slack = rec.d_mean + 3 * combined_se(rec.nmse_stderr, rec.d_stderr) - rec.nmse_mean
        worst = min(worst, slack)
        ok &= slack >= 0
    criterion(7, "mixed-estimator NMSE below the Minkowski-sum MSD at every sigma",
              ok, f"worst slack {worst:.3f}")


def test_criterion_08_lasso_phase_transition(lasso_sweep):
    records, _, elapsed = lasso_sweep
    ok = elapsed < 600
    details = [f"{elapsed:.0f}s"]
    for rec in records:
        if rec.m <= 70:
            margin = 3 * rec.eta_stderr - abs(rec.eta_mean - rec.m)
            ok &= margin >= 0
        if rec.m >= 120:
            band = 3 * rec.eta_stderr + 0.05 * math.sqrt(500)
            margin = band - abs(rec.eta_mean - 89.0)
            ok &= margin >= 0
    below = [r for r in records if r.m <= 70]
    above = [r for r in records if r.m >= 120]
    details.append(f"max |eta-m| below: "
                   f"{max(abs(r.eta_mean - r.m) for r in below):.2f}")
    details.append(f"max |eta-89| above: "
                   f"{max(abs(r.eta_mean - 89.0) for r in above):.2f}")
    # energy split eta + F = m at every m
    for rec in records:
        se = combined_se(rec.eta_stderr, rec.f_stderr)
        ok &= abs(rec.eta_mean + rec.f_mean - rec.m) <= 3 * se
    criterion(8, "constrained-LASSO phase transition bands and eta+F=m",
              ok, "; ".join(details))


def test_criterion_09_energy_identity(lasso_sweep):
    _, diags, _ = lasso_sweep
    ok = True
    worst_energy = 0.0
    n_trials = 0
    for m, trial_list in diags.items():
        for d in trial_list:
            n_trials += 1
            ok &= d.cost <= d.cost_at_truth
            ratio = d.energy / d.noise_energy
            worst_energy = max(worst_energy, ratio)
            ok &= d.energy <= d.noise_energy * (1 + 1e-6)
    criterion(9, "per-trial solver soundness and noise-energy split",
              ok, f"{n_trials} trials, worst energy ratio {worst_energy:.9f}")


def test_criterion_10a_prox_nonexpansive():
    rng = np.random.default_rng(404)
    w12 = rng.uniform(0, 2, size=12)
    ops = {
        "soft": lambda z: prox.soft_threshold(z, 0.8).minimizer,
        "weighted": lambda z: prox.weighted_soft_threshold(z, 0.8, w12).minimizer,
        "block": lambda z: prox.block_soft_threshold(z, 0.8, 3).minimizer,
        "ball_l1": lambda z: prox.project_ball(z, "l1", 2.0),
        "ball_l12": lambda z: prox.project_ball(z, "l12", 2.0, block_size=3),
        "ball_nuclear": lambda z: prox.project_ball(z, "nuclear", 2.0),
        "svt": lambda z: signals.as_vector(
            prox.singular_value_threshold(signals.as_matrix(z, 3), 0.8).minimizer),
    }
    ok = True
    for name, op in ops.items():
        dim = 9 if name in ("svt", "ball_nuclear") else 12
        for _ in range(1000):
            a = rng.standard_normal(dim) * 2
            b = rng.standard_normal(dim) * 2
            ok &= np.linalg.norm(op(a) - op(b)) <= np.linalg.norm(a - b) + 1e-12
        if not ok:
            break
    criterion("10a", "prox and projection nonexpansiveness (1000 pairs/operator)", ok)


def test_criterion_10b_prox_grid_oracle():
    rng = np.random.default_rng(405)
    ok = True
    worst = 0.0
    for _ in range(30):
        y = float(rng.uniform(-4, 4))
        tau = float(rng.uniform(0, 2))
        w = float(rng.uniform(0, 2))
        checks = [
            (prox.soft_threshold(np.array([y]), tau).minimizer[0],
             grid_prox_scalar(y, tau)),
            (prox.weighted_soft_threshold(np.array([y]), tau, np.array([w])).minimizer[0],
             grid_prox_scalar(y, tau, weight=w)),
            (prox.block_soft_threshold(np.array([y]), tau, 1).minimizer[0],
             grid_prox_scalar(y, tau)),
            (prox.singular_value_threshold(np.array([[abs(y)]]), tau).minimizer[0, 0],
             grid_prox_scalar(abs(y), tau)),
        ]
        for got, ref in checks:
            worst = max(worst, abs(got - ref))
            ok &= abs(got - ref) <= 1e-3
    criterion("10b", "prox operators match the 1-D grid oracle to 1e-3",
              ok, f"worst gap {worst:.2e}")


def test_criterion_10c_distance_brute_force():
    rng = np.random.default_rng(406)
    region_of = np.array([0, 1, 0, 1, 1, 0])
    cases = [
        signals.make_sparse(12, 4, seed=31).structure,
        signals.make_sparse(2, 1, seed=32).structure,
        signals.make_weighted_sparse(6, 2, region_of, [0.5, 1.5], seed=33).structure,
        signals.make_block_sparse(3, 2, 1, seed=34).structure,
        signals.make_low_rank(3, 2, seed=35).structure,
        signals.make_low_rank(2, 1, seed=36).structure,
    ]
    ok = True
    worst = 0.0
    for s in cases:
        for lam in (0.5, 1.2):
            g = rng.standard_normal(s.ambient_dim)
            got = geometry.dist_sq_scaled_subdiff(s, g, lam)
            if isinstance(s, signals.WeightedSparseStructure):
                ref = brute_weighted(s, g, lam)
            elif isinstance(s, signals.SparseStructure):
                ref = brute_sparse(s.support, s.signs, g, lam)
            elif isinstance(s, signals.BlockSparseStructure):
                ref = brute_block(s, g, lam)
            else:
                ref = brute_lowrank_codim1(s, g, lam)
            worst = max(worst, abs(got - ref))
            ok &= abs(got - ref) <= 1e-6
    criterion("10c", "distance formulas match brute force in ambient dim <= 12",
              ok, f"worst gap {worst:.2e}")


def test_criterion_10d_orthant_duality():
    n = 64
    rng = np.random.default_rng(407)
    G = rng.standard_normal((40_000, n))
    d_cone = (np.minimum(G, 0.0) ** 2).sum(axis=1)
    d_polar = (np.maximum(G, 0.0) ** 2).sum(axis=1)
    total = d_cone.mean() + d_polar.mean()
    se = combined_se(d_cone.std(ddof=1) / math.sqrt(len(d_cone)),
                     d_polar.std(ddof=1) / math.sqrt(len(d_polar)))
    criterion("10d", "orthant cone duality D(C) + D(C*) = n",
              abs(total - n) <= 3 * se, f"{total:.3f} vs {n}")


def test_criterion_10e_sandwich_chain(cone_sparse):
    inst = signals.make_sparse(500, 20, "unit", seed=1)
    mc = McConfig(samples=20_000, seed=MC_SEED)
    cone = geometry.msd_cone(inst.structure, mc)
    lam_star, opt = geometry.optimal_lambda(inst.structure, mc)
    gc = geometry.geometry_constants(inst.structure)
    gap = 2 * gc.subgradient_radius / gc.sphere_max_value
    band = 3 * combined_se(cone.stderr, opt.stderr)
    ok = (cone.mean <= opt.mean + band) and (opt.mean <= cone.mean + gap + band)
    criterion("10e", "cone MSD <= optimally tuned MSD <= cone MSD + 2R/f_max",
              ok, f"{cone.mean:.2f} <= {opt.mean:.2f} (lam*={lam_star:.3f}) "
                  f"<= {cone.mean:.2f}+{gap:.0f}")


def test_criterion_11_byte_identical_outputs(tmp_path):
    jobs = [
        ("msd", ["msd", "--structure", "sparse:500:20", "--seed", "1",
                 "--lambda-grid", "0:0.5:2", "--samples", "20000"]),
        ("cone", ["msd", "--structure", "sparse:60:6", "--seed", "1",
                  "--cone", "--samples", "20000"]),
        ("bounds", ["bounds", "--structure", "lowrank:30:4", "--seed", "1",
                    "--lambda", "11.0", "--cone-msd", "389"]),
        ("denoise", ["denoise", "--structure", "sparse:200:10", "--seed", "11",
                     "--estimator", "regularized", "--lambda", "2.0", "--trials", "50"]),
        ("lasso", ["lasso", "--structure", "sparse:100:5", "--seed", "7",
                   "--m-grid", "20:30:80", "--trials", "10", "--samples", "5000"]),
    ]
    ok = True
    for name, args in jobs:
        a = tmp_path / f"{name}_a.csv"
        b = tmp_path / f"{name}_b.csv"
        assert cli.main(args + ["--output", str(a)]) == 0
        assert cli.main(args + ["--output", str(b)]) == 0
        ok &= a.read_bytes() == b.read_bytes()
    criterion(11, "repeated runs with equal seeds produce byte-identical files", ok)
