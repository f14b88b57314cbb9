import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import combined_se, first_order_error

from proxmse import denoise, geometry, prox, signals
from proxmse.errors import InvalidStructureError, NumericalError


def test_zero_lambda_nmse_is_noise_energy_per_trial():
    inst = signals.make_sparse(30, 4, seed=3)
    grid = [0.01, 0.1]
    trials = 6
    run = denoise.run_regularized(inst, 0.0, grid, trials, seed=9)
    for si, rec in enumerate(run.records):
        expected = []
        for ti in range(trials):
            v = denoise.trial_noise(9, si, ti, 30)
            expected.append(float(v @ v))
        assert rec.nmse_mean == pytest.approx(np.mean(expected), rel=1e-12)


def test_default_sigma_grid_spans_small_noise():
    inst = signals.make_sparse(20, 3, "uniform", seed=2)
    grid = denoise.default_sigma_grid(inst)
    assert grid.size == 8
    assert grid[0] == pytest.approx(1e-3 * inst.min_magnitude())
    assert grid[-1] == pytest.approx(inst.min_magnitude())
    assert np.all(np.diff(grid) > 0)


def test_regularized_small_sigma_matches_exact_distance():
    inst = signals.make_sparse(100, 5, "uniform", seed=4)
    grid = denoise.default_sigma_grid(inst)
    run = denoise.run_regularized(inst, 1.5, grid, trials=300, seed=5)
    ref = geometry.msd_lambda_exact_l1(100, 5, 1.5)
    rec = run.records[0]
    assert abs(rec.nmse_mean - ref) <= 0.05 * ref


def test_regularized_monotone_within_band():
    inst = signals.make_sparse(100, 5, "uniform", seed=4)
    grid = denoise.default_sigma_grid(inst)
    run = denoise.run_regularized(inst, 1.5, grid, trials=300, seed=5)
    for a, b in zip(run.records, run.records[1:]):
        band = 3 * combined_se(a.nmse_stderr, b.nmse_stderr)
        assert b.nmse_mean <= a.nmse_mean + band


def test_regularized_lowrank_runs_with_certified_prox():
    inst = signals.make_low_rank(8, 2, seed=6)
    grid = denoise.default_sigma_grid(inst, points=3)
    run = denoise.run_regularized(inst, 1.0, grid, trials=10, seed=7)
    assert all(rec.trials == 10 for rec in run.records)


def test_regularized_weighted_with_unit_weights_matches_sparse():
    sparse = signals.make_sparse(30, 4, seed=3)
    weighted = signals.make_weighted_sparse(30, 4, np.zeros(30, dtype=int), [1.0], seed=3)
    a = denoise.run_regularized(sparse, 1.5, [0.01, 0.5], 6, seed=9)
    b = denoise.run_regularized(weighted, 1.5, [0.01, 0.5], 6, seed=9)
    assert a.records == b.records


def test_constrained_small_sigma_near_cone_msd():
    inst = signals.make_sparse(80, 6, "uniform", seed=8)
    grid = denoise.default_sigma_grid(inst)
    run = denoise.run_constrained(inst, grid, trials=400, seed=11)
    cone = geometry.msd_cone(inst.structure, geometry.McConfig(samples=40_000, seed=12))
    rec = run.records[0]
    assert abs(rec.nmse_mean - cone.mean) <= 0.05 * cone.mean + 3 * rec.nmse_stderr


def test_constrained_identity_when_noise_shrinks_signal():
    inst = signals.make_sparse(10, 2, seed=13)
    radius = inst.structure.norm(inst.values)
    y = 0.9 * inst.values    # strictly inside the ball
    assert np.array_equal(prox.project_ball(y, "l1", radius), y)


def test_mixed_distance_single_coordinate():
    s = signals.SparseStructure(1, [0], [1.0])
    assert denoise.mixed_distance_sq(s, np.array([-2.0]), 1.0) == pytest.approx(9.0)


def test_mixed_upper_bound_every_sigma():
    inst = signals.nonnegative(signals.make_sparse(60, 5, "uniform", seed=14))
    grid = denoise.default_sigma_grid(inst)
    run = denoise.run_mixed_nonneg_sparse(inst, 1.2, grid, trials=300, seed=15)
    for rec in run.records:
        band = 3 * combined_se(rec.nmse_stderr, rec.d_stderr)
        assert rec.nmse_mean <= rec.d_mean + band


def test_mixed_zero_lambda_projects_onto_orthant():
    inst = signals.nonnegative(signals.make_sparse(25, 3, seed=16))
    grid = [0.05, 0.5]
    run = denoise.run_mixed_nonneg_sparse(inst, 0.0, grid, trials=50, seed=17)
    for rec in run.records:
        assert rec.nmse_mean <= 25 + 3 * rec.nmse_stderr
    # spot-check the estimator formula on one reconstructed trial
    v = denoise.trial_noise(17, 0, 0, 25)
    y = inst.values + grid[0] * v
    assert np.all(np.maximum(y, 0.0) >= 0)


def test_mixed_rejects_signed_instance():
    inst = signals.make_sparse(30, 4, seed=18)
    if np.all(inst.values >= 0):   # astronomically unlikely, but keep the test honest
        pytest.skip("instance happened to be nonnegative")
    with pytest.raises(ValueError):
        denoise.run_mixed_nonneg_sparse(inst, 1.0, [0.1], 5, seed=1)


def test_first_order_error_matches_prox_error_at_small_sigma():
    inst = signals.make_sparse(120, 6, "uniform", seed=19)
    s = inst.structure
    lam = 1.5
    sigma = 1e-3 * inst.min_magnitude()
    rels = []
    for ti in range(100):
        v = denoise.trial_noise(23, 0, ti, 120)
        y = inst.values + sigma * v
        x_star = prox.soft_threshold(y, sigma * lam).minimizer
        w_true = x_star - inst.values
        w_hat = first_order_error(s, sigma * v, sigma * lam)
        rels.append(np.linalg.norm(w_true - w_hat) / np.linalg.norm(w_hat))
    assert np.mean(rels) <= 0.01


def test_runs_are_reproducible():
    inst = signals.make_sparse(40, 4, seed=20)
    grid = [0.01, 0.1]
    a = denoise.run_regularized(inst, 1.0, grid, 20, seed=21)
    b = denoise.run_regularized(inst, 1.0, grid, 20, seed=21)
    assert a.records == b.records


def test_grid_validation():
    inst = signals.make_sparse(10, 2, seed=1)
    with pytest.raises(ValueError):
        denoise.run_regularized(inst, 1.0, [0.1, 0.1], 5, seed=1)
    with pytest.raises(ValueError):
        denoise.run_regularized(inst, 1.0, [-0.1, 0.2], 5, seed=1)
    with pytest.raises(ValueError):
        denoise.run_regularized(inst, 1.0, [0.1], 1, seed=1)


@pytest.mark.parametrize("trials", [2.5, 3.0, True])
def test_non_integral_trials_raise_type_error(trials):
    inst = signals.make_sparse(10, 2, seed=1)
    with pytest.raises(TypeError, match="trials"):
        denoise.run_regularized(inst, 1.0, [0.1], trials, seed=1)


def test_uncertified_trial_fails_closed():
    # a NaN residual compares False with the tolerance; the check must still fail
    inst = signals.make_sparse(10, 2, seed=1)
    for residual in (float("nan"), 1e-6):
        with pytest.raises(NumericalError):
            denoise._run(inst, 1.0, [0.1], 2, 1,
                         lambda Y, sigma: (Y, np.full(len(Y), residual)))


@pytest.mark.parametrize("make", [
    lambda: signals.make_sparse(30, 4, seed=3),
    lambda: signals.make_weighted_sparse(12, 4, np.arange(12) % 3, [0.5, 1.0, 2.5], seed=3),
    lambda: signals.make_block_sparse(6, 4, 3, seed=3),
    lambda: signals.make_low_rank(5, 2, seed=3),
], ids=["sparse", "weighted", "block", "lowrank"])
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(trial=st.integers(0, denoise.BLOCK + 3))
@example(trial=0)
@example(trial=denoise.BLOCK + 2)
def test_perturbed_row_fails_closed_with_its_trial_index(make, trial):
    # trials span two blocks; one row's minimizer is scaled off the optimum
    inst = make()
    lam, trials = 1.0, denoise.BLOCK + 4
    done, others = [0], []

    def estimate(Y, sigma):
        X = prox.prox_step(inst.structure, Y, sigma * lam).minimizer
        row = trial - done[0]
        done[0] += len(Y)
        if 0 <= row < len(Y):
            X[row] *= 1.001
        residuals = prox.prox_residual(inst.structure, Y, X, sigma * lam)
        others.extend(np.delete(residuals, row) if 0 <= row < len(Y) else residuals)
        return X, residuals

    with pytest.raises(NumericalError) as failed:
        denoise._run(inst, lam, [0.01], trials, 5, estimate)
    assert failed.value.index == trial
    # every row of the blocks that ran, but the perturbed one, certified
    ran = min((trial // denoise.BLOCK + 1) * denoise.BLOCK, trials)
    assert len(others) == ran - 1
    assert max(others) <= denoise.RESIDUAL_TOL


def test_sparse_regularized_run_builds_no_structure(monkeypatch):
    built = []
    post_init = signals._SignedSupport.__post_init__

    def counting(self):
        built.append(type(self).__name__)
        post_init(self)

    monkeypatch.setattr(signals._SignedSupport, "__post_init__", counting)
    inst = signals.make_sparse(50, 5, seed=3)
    assert built == ["SparseStructure"]
    denoise.run_regularized(inst, 1.5, [0.01, 0.1], denoise.BLOCK + 6, seed=4)
    assert built == ["SparseStructure"]


def test_constrained_rejects_weighted():
    region_of = np.zeros(10, dtype=int)
    inst = signals.make_weighted_sparse(10, 2, region_of, [1.0], seed=2)
    with pytest.raises(InvalidStructureError):
        denoise.run_constrained(inst, [0.1], 5, seed=3)
