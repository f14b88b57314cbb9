import numpy as np
import pytest

from proxmse import denoise, geometry, signals, streams


def test_stream_rejects_negative_seed_or_path():
    with pytest.raises(ValueError):
        streams.stream(-1, 0)
    with pytest.raises(ValueError):
        streams.stream(1, 0, -2)


@pytest.mark.parametrize("seed, path", [(1.5, (0,)), (1.0, (0,)), (1, (2.0,)), (1, (0, 0.5)),
                                        (True, (0,)), (1, (np.bool_(True),))])
def test_non_integral_seed_or_path_raises_type_error(seed, path):
    # int() once truncated these, so stream(1.5) drew exactly what stream(1) drew
    with pytest.raises(TypeError):
        streams.stream(seed, *path)


def test_numpy_integer_seed_and_path_match_python_ints():
    a = streams.stream(np.int64(12), np.uint32(3), np.int16(4)).standard_normal(5)
    b = streams.stream(12, 3, 4).standard_normal(5)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("inst", [signals.make_sparse(40, 3, seed=2),
                                  signals.make_low_rank(6, 2, seed=5)],
                         ids=["vector", "lowrank"])
def test_run_draws_equal_stacked_trial_noise(inst):
    # 130 trials: two full blocks and a partial one reuse the same buffers
    trials, seed, grid = 130, 21, [0.25, 0.5]
    seen, drawn = [], []

    def estimate(points, sigma):
        seen.append(points.copy())
        return points, np.zeros(len(points))

    def distance(V):
        drawn.append(V.copy())
        return np.zeros(len(V))

    denoise._run(inst, None, grid, trials, seed, estimate, distance)
    n = inst.ambient_dim
    expected_v = [np.stack([denoise.trial_noise(seed, si, ti, n) for ti in range(trials)])
                  for si in range(len(grid))]
    expected_y = [inst.structure.layout(inst.values + sigma * v)[0]
                  for sigma, v in zip(grid, expected_v)]
    got_v = np.concatenate(drawn)
    got_y = np.concatenate(seen)
    assert got_y.shape == (len(grid) * trials, *expected_y[0].shape[1:])
    assert np.array_equal(got_v.view(np.uint64), np.concatenate(expected_v).view(np.uint64))
    assert np.array_equal(got_y.view(np.uint64), np.concatenate(expected_y).view(np.uint64))


def test_denoise_trials_share_no_draws_with_a_reference_under_one_seed(monkeypatch):
    # the CLI and the acceptance checks compare a denoise run with msd_cone /
    # msd_lambda under the same seed: a noise level must not redraw a chunk
    inst, seed, trials = signals.make_sparse(30, 3, seed=2), 7, 8
    chunks = []

    def recording(seed, *path):
        rng = streams.stream(seed, *path)
        draw = rng.standard_normal

        class Recorder:
            def standard_normal(self, *, out):
                chunks.append(draw(out=out).copy())
                return out
        return Recorder()

    monkeypatch.setattr(geometry, "stream", recording)
    monkeypatch.setattr(geometry, "CHUNK", trials)
    geometry.msd_cone(inst.structure, geometry.McConfig(samples=2 * trials, seed=seed))
    noise = []
    denoise._run(inst, None, [0.25, 0.5], trials, seed,
                 lambda points, sigma: (points, np.zeros(len(points))),
                 lambda V: noise.append(V.copy()) or np.zeros(len(V)))
    assert len(chunks) == len(noise) == 2
    for c, v in zip(chunks, noise):
        assert c.shape == v.shape
        assert not np.any(c == v)
