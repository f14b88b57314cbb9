import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxmse import denoise, signals, streams

WORD = 2**32
seeds = st.integers(0, 2**64 - 1) | st.sampled_from([2**64, 2**100, 2**128 - 1, 2**200 + 3])


def seed_sequence_key(seed, path):
    """numpy's own key for stream(seed, *path): the oracle of streams.keys."""
    return np.random.SeedSequence(seed, spawn_key=tuple(path)).generate_state(2, np.uint64)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=seeds, length=st.integers(0, 3), data=st.data())
def test_keys_and_rows_equal_numpy_seed_sequence_streams(seed, length, data):
    paths = data.draw(st.lists(st.lists(st.integers(0, WORD - 1), min_size=length,
                                        max_size=length), min_size=1, max_size=4))
    got = streams.keys(seed, np.array(paths, dtype=np.int64).reshape(len(paths), length))
    assert got.dtype == np.uint64 and got.shape == (len(paths), 2)
    for row, path in zip(got, paths):
        assert np.array_equal(row, seed_sequence_key(seed, path))
    rows = streams.NormalRows(4, 7).draw(got)
    expected = np.stack([streams.stream(seed, *path).standard_normal(7) for path in paths])
    assert np.array_equal(rows.view(np.uint64), expected.view(np.uint64))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(bad=st.integers(max_value=-1) | st.integers(min_value=WORD),
       position=st.integers(0, 2), dtype=st.sampled_from([None, np.int64, np.uint64]))
def test_keys_reject_path_entries_outside_one_word(bad, position, dtype):
    # numpy hashes such an entry as another number of words (or refuses it),
    # so a one-word hash of it would be a wrong key
    path = [5, 6, 7]
    path[position] = bad
    rows = [[1, 2, 3], path]
    if dtype is not None and np.can_cast(np.min_scalar_type(bad), dtype):
        rows = np.array(rows, dtype=dtype)
    with pytest.raises(ValueError):
        streams.keys(3, rows)


def test_keys_reject_negative_seed():
    with pytest.raises(ValueError):
        streams.keys(-1, [[0, 1]])
    with pytest.raises(ValueError):
        streams.stream(-1, 0)


@pytest.mark.parametrize("seed, path", [(1.5, (0,)), (1.0, (0,)), (1, (2.0,)), (1, (0, 0.5))])
def test_non_integral_seed_or_path_raises_type_error(seed, path):
    # int() once truncated these, so stream(1.5) drew exactly what stream(1) drew
    with pytest.raises(TypeError):
        streams.stream(seed, *path)
    with pytest.raises(TypeError):
        streams.keys(seed, np.array([path]))


def test_numpy_integer_seed_and_path_match_python_ints():
    a = streams.stream(np.int64(12), np.uint32(3), np.int16(4)).standard_normal(5)
    b = streams.stream(12, 3, 4).standard_normal(5)
    assert np.array_equal(a, b)
    assert np.array_equal(streams.keys(np.uint64(12), np.array([[3, 4]], dtype=np.uint32)),
                          streams.keys(12, [[3, 4]]))


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
