import json
import math
import os
import stat
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from proxmse import cli, denoise, geometry, signals, streams
from proxmse.errors import InvalidStructureError


def run_cli(args):
    return cli.main(args)


def read_lines(path):
    with open(path, "rb") as fh:
        return fh.read().decode().splitlines()


# ---------------------------------------------------------------------------
# grid and structure parsing
# ---------------------------------------------------------------------------

def test_parse_grid_inclusive_endpoint():
    grid = cli.parse_grid("20:20:400")
    assert grid[0] == 20 and grid[-1] == 400 and len(grid) == 20
    grid = cli.parse_grid("0:0.1:3")
    assert len(grid) == 31
    assert grid[-1] == pytest.approx(3.0)
    assert cli.parse_grid("2.5") == [2.5]


def test_parse_grid_rejects_garbage():
    with pytest.raises(cli.ConfigError):
        cli.parse_grid("1:2")
    with pytest.raises(cli.ConfigError):
        cli.parse_grid("a:b:c")
    with pytest.raises(cli.ConfigError):
        cli.parse_grid("0:-1:5")


def loop_grid(text):
    """The parser's earlier grid, one Python step per point, as the oracle of its bits."""
    start, step, stop = (float(p) for p in text.split(":"))
    count = int(np.floor((stop - start) / step + 1e-9)) + 1
    return [start + i * step for i in range(count)]


# every grid of tools/cli_jobs.py, perfbench/ and README, and of the tests here
GRIDS = ["0:0.5:3", "0:0.1:3", "20:30:80", "40:30:100", "50:30:80", "200:200:400",
         "20:20:400", "0.01:0.01:0.02", "0.01:0.01:0.03", "0.1:0.1:0.3", "0:0.5:1",
         "0:0.5:2", "0:1:2", "10:15:40", "10:2.5:20", "8:10:28", "80:130:210"]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(start=st.floats(-1e6, 1e6), step=st.floats(1e-6, 1e3), span=st.floats(0, 300))
def test_parse_grid_keeps_every_point_bit_for_bit(start, step, span):
    for text in [*GRIDS, f"{start!r}:{step!r}:{start + span * step!r}"]:
        grid = cli.parse_grid(text)
        assert [type(v) for v in grid] == [float] * len(grid)
        assert [v.hex() for v in grid] == [v.hex() for v in loop_grid(text)], text


def test_grid_of_too_many_points_exits_2_at_once(tmp_path):
    # the parser built every point in a Python loop before it counted them,
    # and ran out of memory on this grid of 10^300 points
    out = tmp_path / "never.csv"
    began = time.perf_counter()
    assert run_cli(["msd", "--structure", "sparse:40:4", "--seed", "1",
                    "--lambda-grid", "0:1e-300:1", "--output", str(out)]) == 2
    assert time.perf_counter() - began < 1.0
    assert not out.exists()
    # a point count that overflows to inf is rejected too, not an OverflowError
    for text in ["0:1e-300:1", "0:1e-300:1e300", "-1e308:1e-300:1e308"]:
        with pytest.raises(cli.ConfigError, match="more than 1152921504606846975 points"):
            cli.parse_grid(text)


def test_parse_structure_shorthand_and_json():
    inst, desc = cli.parse_structure("sparse:50:5", seed=3, magnitude_law="uniform")
    assert desc == {"kind": "sparse", "n": 50, "k": 5, "seed": 3, "magnitude_law": "uniform"}
    assert inst.ambient_dim == 50
    inst2, desc2 = cli.parse_structure(json.dumps(desc), seed=99, magnitude_law="uniform")
    assert desc2["seed"] == 3           # JSON descriptor seed wins
    assert (inst2.values == inst.values).all()
    for text, dim in (("block:6:4:2", 24), ("lowrank:5:2", 25)):
        inst, desc = cli.parse_structure(text, seed=1, magnitude_law="uniform")
        assert inst.ambient_dim == dim
        inst2, _ = cli.parse_structure(json.dumps(desc), seed=99, magnitude_law="uniform")
        assert (inst2.values == inst.values).all()


# descriptors whose counts or seed are not JSON integers: each is rejected,
# never truncated or read as a number
NON_INTEGRAL_DESCRIPTORS = [
    '{"kind":"sparse","n":50.7,"k":5,"seed":1}',
    '{"kind":"sparse","n":50,"k":5,"seed":1.9}',
    '{"kind":"sparse","n":50.0,"k":5,"seed":1}',
    '{"kind":"sparse","n":"50","k":5,"seed":1}',
    '{"kind":"sparse","n":50,"k":true,"seed":1}',
    '{"kind":"sparse","n":null,"k":5,"seed":1}',
    '{"kind":"sparse","n":[3],"k":5,"seed":1}',
]


def test_parse_structure_errors():
    for text in ["sparse:50", '{"kind":"sparse","n":50,"k":5}', "{bad json", "sparse:50:500",
                 '{"kind":"mystery","seed":1}', '{"kind":["sparse"],"seed":1}',
                 '{"kind":"block","t":6,"b":4,"seed":1}', *NON_INTEGRAL_DESCRIPTORS]:
        with pytest.raises(cli.ConfigError):
            cli.parse_structure(text, seed=1, magnitude_law="uniform")


# ---------------------------------------------------------------------------
# msd command
# ---------------------------------------------------------------------------

def test_msd_lambda_grid_csv(tmp_path):
    out = tmp_path / "msd.csv"
    code = run_cli(["msd", "--structure", "sparse:40:4", "--seed", "1",
                    "--lambda-grid", "0:0.5:1", "--samples", "2000",
                    "--output", str(out)])
    assert code == 0
    lines = read_lines(out)
    assert lines[0].startswith("# config: ")
    cfg = json.loads(lines[0][len("# config: "):])
    assert cfg["command"] == "msd" and cfg["seed"] == 1
    assert lines[1] == "structure,lambda,mean,stderr,samples"
    assert len(lines) == 2 + 3
    first = lines[2].split(",")
    assert first[0] == "sparse:40:4"
    assert float(first[2]) == pytest.approx(40.0, rel=0.1)   # lam=0 -> ambient dim


def test_msd_cone_single_row(tmp_path):
    out = tmp_path / "cone.csv"
    code = run_cli(["msd", "--structure", "sparse:40:4", "--seed", "2",
                    "--cone", "--samples", "2000", "--output", str(out)])
    assert code == 0
    lines = read_lines(out)
    assert len(lines) == 3
    row = lines[2].split(",")
    assert row[1] == ""   # cone rows carry no lambda


def test_msd_requires_work(tmp_path):
    out = tmp_path / "x.csv"
    code = run_cli(["msd", "--structure", "sparse:40:4", "--seed", "1",
                    "--output", str(out)])
    assert code == 2
    assert not out.exists()


def test_msd_job_draws_each_chunk_once(tmp_path, monkeypatch):
    # the curve and the cone come from one pass: one stream per chunk
    made = []

    def counted(seed, *path):
        made.append(path)
        return streams.stream(seed, *path)

    monkeypatch.setattr(geometry, "stream", counted)
    code = run_cli(["msd", "--structure", "sparse:40:4", "--seed", "1",
                    "--lambda-grid", "0:1:2", "--cone", "--samples", "8192",
                    "--output", str(tmp_path / "msd.csv")])
    assert code == 0
    assert made == [(0,), (1,)]


def test_invalid_structure_json_exits_2_no_file(tmp_path):
    out = tmp_path / "never.csv"
    for text in ['{"kind":"sparse","n":', *NON_INTEGRAL_DESCRIPTORS]:
        code = run_cli(["msd", "--structure", text, "--seed", "1",
                        "--cone", "--samples", "2000", "--output", str(out)])
        assert code == 2, text
        assert not out.exists()


HUGE = "100000000000000000000000000000"


@pytest.mark.parametrize("structure", [
    f"sparse:{HUGE}:2", f"block:{HUGE}:2:1", f'{{"kind":"sparse","n":{HUGE},"k":2,"seed":1}}',
], ids=["sparse", "block", "json"])
def test_huge_structure_count_exits_2_no_file(tmp_path, structure):
    # a count numpy cannot hold once exited 1 with an OverflowError traceback
    out = tmp_path / "never.csv"
    code = run_cli(["bounds", "--structure", structure, "--seed", "1", "--output", str(out)])
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("args, size", [
    (["bounds", "--structure", f"sparse:{signals.MAX_COUNT}:1"], "8.00 EiB"),
    (["msd", "--structure", "sparse:40:4", "--lambda-grid", "0:1e-15:1"], "7.11 PiB"),
], ids=["signal", "grid"])
def test_unallocatable_counts_exit_2_naming_the_allocation(tmp_path, capsys, args, size):
    # the counts pass their checks, but no machine holds their arrays: malloc
    # refuses each at once, and the runs once exited 1 with a MemoryError traceback
    out = tmp_path / "never.csv"
    code = run_cli(args + ["--seed", "1", "--output", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: Unable to allocate {size}")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert os.listdir(tmp_path) == []


def _count_or_1(value):
    """value as an array dimension when numpy takes it, else 1 (the count check fires first)."""
    try:
        if isinstance(value, bool):
            raise TypeError
        np.zeros((0, value))
        return int(value)
    except (TypeError, ValueError, OverflowError):
        return 1


# each size field with the other fields small: the class (empty support, so
# its arrays take any count), the maker, the shorthand and the JSON descriptor
SIZE_FIELDS = {
    "n": (lambda v: signals.SparseStructure(v, [], []),
          lambda v: signals.make_sparse(v, 1), "sparse:{}:1", {"kind": "sparse", "k": 1}),
    "t": (lambda v: signals.BlockSparseStructure(v, 2, [], np.zeros((0, 2))),
          lambda v: signals.make_block_sparse(v, 2, 1), "block:{}:2:1",
          {"kind": "block", "b": 2, "k": 1}),
    "b": (lambda v: signals.BlockSparseStructure(2, v, [], np.zeros((0, _count_or_1(v)))),
          lambda v: signals.make_block_sparse(2, v, 1), "block:2:{}:1",
          {"kind": "block", "t": 2, "k": 1}),
    "d": (lambda v: signals.LowRankStructure(v, 0, *2 * [np.zeros((_count_or_1(v), 0))]),
          lambda v: signals.make_low_rank(v, 1), "lowrank:{}:1", {"kind": "lowrank", "r": 1}),
}
def _reads_as_int(text):
    try:
        int(text)
    except ValueError:
        return False
    return True


def _outcome(build):
    try:
        build()
    except MemoryError:   # n = 2^60 - 1 passed the check; numpy cannot allocate 8 EiB
        return "accepted"
    except (TypeError, InvalidStructureError, cli.ConfigError) as exc:
        return type(exc)
    return "accepted"


# accepted counts are drawn small, or at 2^60 - 1 where the allocation fails at
# once: the maker allocates every count it accepts
SIZE_VALUES = st.one_of(
    st.sampled_from([0, 2**60 - 1, 2**60, 2**63 - 1, 10**29, True, False, None, 7.0, 2.5]),
    st.integers(1, 40), st.integers(max_value=-1), st.integers(min_value=2**60),
    st.sampled_from([np.int8(-3), np.int64(0), np.int64(9), np.uint64(12), np.int32(2),
                     np.int64(2**62), np.uint64(2**64 - 1)]),
    st.floats(),
    st.text().filter(lambda s: not _reads_as_int(s)),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(field=st.sampled_from(sorted(SIZE_FIELDS)), value=SIZE_VALUES)
def test_size_fields_are_checked_alike_everywhere(tmp_path, field, value):
    # the class, the maker and the CLI (shorthand and JSON) accept a count or
    # all reject it: TypeError for a non-integer, InvalidStructureError for an
    # integer out of range, ConfigError and exit 2 with no file from the CLI
    build, make, shorthand, desc = SIZE_FIELDS[field]
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        expected = TypeError
    else:
        v = int(value)
        ambient = {"n": v, "t": 2 * v, "b": 2 * v, "d": v * v}[field]   # capped too
        expected = "accepted" if 1 <= v and ambient <= signals.MAX_COUNT else InvalidStructureError
    assert _outcome(lambda: build(value)) == expected
    assert _outcome(lambda: make(value)) == expected
    if field == "n":   # the exact l1 curve takes the sparse counts too
        assert _outcome(lambda: geometry.msd_lambda_exact_l1(value, 1, 1.0)) == expected
    as_json = int(value) if isinstance(value, np.integer) else value
    texts = [shorthand.format(as_json), json.dumps({**desc, field: as_json, "seed": 1})]
    cli_expected = "accepted" if expected == "accepted" else cli.ConfigError
    for text in texts:
        assert _outcome(lambda: cli.parse_structure(text, 1, "uniform")) == cli_expected, text
        if cli_expected is cli.ConfigError:
            out = tmp_path / "never.csv"
            assert run_cli(["bounds", "--structure", text, "--seed", "1",
                            "--output", str(out)]) == 2
            assert not out.exists()


def test_config_structure_reproduces_magnitude_law(tmp_path):
    first = tmp_path / "unit.csv"
    args = ["denoise", "--seed", "4", "--estimator", "regularized", "--lambda", "1.5",
            "--trials", "10", "--sigma-grid", "0.01:0.01:0.02"]
    assert run_cli(args + ["--structure", "sparse:30:3", "--magnitude-law", "unit",
                           "--output", str(first)]) == 0
    config = json.loads(read_lines(first)[0][len("# config: "):])
    again = tmp_path / "again.csv"
    assert run_cli(args + ["--structure", json.dumps(config["structure"]),
                           "--output", str(again)]) == 0
    assert read_lines(again) == read_lines(first)
    assert config["structure"]["magnitude_law"] == "unit"


def test_json_format_same_rows(tmp_path):
    out_csv = tmp_path / "a.csv"
    out_json = tmp_path / "a.json"
    args = ["msd", "--structure", "sparse:30:3", "--seed", "5",
            "--lambda-grid", "1", "--samples", "2000"]
    assert run_cli(args + ["--output", str(out_csv)]) == 0
    assert run_cli(args + ["--output", str(out_json), "--format", "json"]) == 0
    data = json.loads(out_json.read_text())
    assert set(data.keys()) == {"config", "rows"}
    csv_row = read_lines(out_csv)[2].split(",")
    jrow = data["rows"][0]
    assert jrow["structure"] == csv_row[0]
    assert jrow["mean"] == pytest.approx(float(csv_row[2]))


# ---------------------------------------------------------------------------
# bounds command
# ---------------------------------------------------------------------------

def test_bounds_lowrank_value(tmp_path):
    out = tmp_path / "b.csv"
    code = run_cli(["bounds", "--structure", "lowrank:30:4", "--seed", "1",
                    "--lambda", "10.954451150103322", "--output", str(out)])
    assert code == 0
    lines = read_lines(out)
    header = lines[1].split(",")
    row = dict(zip(header, lines[2].split(",")))
    lam = 10.954451150103322
    assert float(row["table1_bound"]) == pytest.approx((lam * lam + 60) * 4 + 60)
    assert row["bound_valid"] == "true"


def test_bounds_sparse_sandwich_gap(tmp_path):
    out = tmp_path / "b2.csv"
    assert run_cli(["bounds", "--structure", "sparse:500:20", "--seed", "1",
                    "--output", str(out)]) == 0
    lines = read_lines(out)
    row = dict(zip(lines[1].split(","), lines[2].split(",")))
    assert float(row["sandwich_gap"]) == pytest.approx(10.0)
    assert row["table1_bound"] == ""


def test_bounds_below_threshold_flagged(tmp_path):
    out = tmp_path / "b3.csv"
    assert run_cli(["bounds", "--structure", "sparse:500:20", "--seed", "1",
                    "--lambda", "0.5", "--output", str(out)]) == 0
    lines = read_lines(out)
    row = dict(zip(lines[1].split(","), lines[2].split(",")))
    assert row["bound_valid"] == "false"
    assert row["table1_bound"] == ""


def test_bounds_lipschitz_column(tmp_path):
    out = tmp_path / "b4.csv"
    assert run_cli(["bounds", "--structure", "sparse:500:20", "--seed", "1",
                    "--cone-msd", "89.0", "--output", str(out)]) == 0
    lines = read_lines(out)
    row = dict(zip(lines[1].split(","), lines[2].split(",")))
    rl = math.sqrt(25.0)
    assert float(row["lipschitz_bound"]) == pytest.approx(
        89 + 2 * math.pi * (rl ** 2 + rl * math.sqrt(89.0) + 1)
    )


# ---------------------------------------------------------------------------
# denoise and lasso commands
# ---------------------------------------------------------------------------

def test_denoise_dispatch(tmp_path):
    out = tmp_path / "d.csv"
    code = run_cli(["denoise", "--structure", "sparse:30:3", "--seed", "4",
                    "--estimator", "regularized", "--lambda", "1.5",
                    "--trials", "10", "--output", str(out)])
    assert code == 0
    lines = read_lines(out)
    assert lines[1] == ("structure,estimator,lambda,sigma,nmse_mean,"
                        "nmse_stderr,trials,d_reference")
    assert len(lines) == 2 + 8      # default 8-point sigma grid


def test_denoise_constrained_lowrank(tmp_path):
    out = tmp_path / "dc.csv"
    code = run_cli(["denoise", "--structure", "lowrank:6:2", "--seed", "4",
                    "--estimator", "constrained", "--trials", "5",
                    "--output", str(out)])
    assert code == 0
    rows = read_lines(out)[2:]
    assert all(r.split(",")[1] == "constrained" for r in rows)


def test_denoise_mixed_requires_lambda(tmp_path):
    out = tmp_path / "dm.csv"
    code = run_cli(["denoise", "--structure", "sparse:30:3", "--seed", "4",
                    "--estimator", "mixed", "--trials", "5", "--output", str(out)])
    assert code == 2
    assert not out.exists()


def test_denoise_mixed_fills_reference(tmp_path):
    out = tmp_path / "dm2.csv"
    code = run_cli(["denoise", "--structure", "sparse:30:3", "--seed", "4",
                    "--estimator", "mixed", "--lambda", "1.0",
                    "--trials", "10", "--output", str(out)])
    assert code == 0
    rows = read_lines(out)[2:]
    assert all(r.split(",")[-1] != "" for r in rows)


@pytest.fixture
def noise_draws(monkeypatch):
    """The path of every stream the denoise trial loop makes while the test
    runs, each with the number of noise rows drawn from it."""
    draws = []

    class CountingStream:
        def __init__(self, rng, rows):
            self._rng, self._rows = rng, rows

        def standard_normal(self, *, out):
            self._rows[1] += len(out)
            return self._rng.standard_normal(out=out)

    def counted(seed, *path):
        draws.append([path, 0])
        return CountingStream(streams.stream(seed, *path), draws[-1])

    monkeypatch.setattr(denoise, "stream", counted)
    return draws


def test_noise_draws_sees_every_trial_of_a_denoise_job(tmp_path, noise_draws):
    # the control for the tests below that expect no draws: 70 trials are a
    # full block and a partial one, both drawn from their noise level's stream
    code = run_cli(["denoise", "--structure", "sparse:30:3", "--seed", "4",
                    "--estimator", "constrained", "--sigma-grid", "0.01:0.01:0.03",
                    "--trials", "70", "--output", str(tmp_path / "d.csv")])
    assert code == 0
    assert noise_draws == [[(si, 0), 70] for si in range(3)]


@pytest.mark.parametrize("estimator, samples", [
    pytest.param("regularized", "1", id="regularized"),
    pytest.param("constrained", "1", id="constrained"),
    # the mixed reference comes from the trials' own draws: any sample count
    # would be written into the config without having been used
    pytest.param("mixed", "4000", id="mixed"),
])
def test_denoise_bad_reference_samples_exit_2_before_trials(tmp_path, noise_draws, estimator,
                                                            samples):
    out = tmp_path / "never.csv"
    lam = [] if estimator == "constrained" else ["--lambda", "2"]
    code = run_cli(["denoise", "--structure", "sparse:200:10", "--seed", "4",
                    "--estimator", estimator, *lam, "--trials", "400",
                    "--reference-samples", samples, "--output", str(out)])
    assert code == 2
    assert not out.exists()
    assert noise_draws == []


@pytest.mark.parametrize("lam", ["nan", "2"])
def test_denoise_constrained_rejects_lambda_before_trials(tmp_path, noise_draws, lam):
    # the constrained estimator has no lambda: a given one, even NaN, was
    # written into the config without having been used
    out = tmp_path / "never.csv"
    code = run_cli(["denoise", "--structure", "sparse:200:10", "--seed", "4",
                    "--estimator", "constrained", "--lambda", lam, "--trials", "5",
                    "--output", str(out)])
    assert code == 2
    assert not out.exists()
    assert noise_draws == []


def test_lasso_sweep_csv(tmp_path):
    out = tmp_path / "l.csv"
    code = run_cli(["lasso", "--structure", "sparse:40:3", "--seed", "6",
                    "--m-grid", "10:15:40", "--trials", "5", "--samples", "4000",
                    "--output", str(out)])
    assert code == 0
    lines = read_lines(out)
    assert lines[1] == ("structure,matrix_kind,m,eta_mean,eta_stderr,f_mean,"
                        "f_stderr,e_mean,e_stderr,predicted_eta,trials,excluded_trials")
    assert len(lines) == 2 + 3      # m = 10, 25, 40
    for line in lines[2:]:
        row = dict(zip(lines[1].split(","), line.split(",")))
        assert row["matrix_kind"] == "unitary"
        assert int(row["excluded_trials"]) == 0


@pytest.mark.parametrize("args", [
    ["msd", "--lambda-grid", "nan", "--samples", "2000"],
    ["denoise", "--estimator", "regularized", "--lambda", "nan", "--trials", "5"],
    ["bounds", "--lambda", "nan"],
    ["bounds", "--cone-msd", "nan"],
    ["denoise", "--estimator", "regularized", "--lambda", "1.0", "--sigma-grid", "nan",
     "--trials", "5"],
    ["lasso", "--m-grid", "10", "--trials", "2", "--samples", "100", "--sigma-scale", "inf"],
], ids=["msd-lambda", "denoise-lambda", "bounds-lambda", "bounds-cone-msd", "sigma-grid",
        "lasso-sigma"])
def test_non_finite_scalars_exit_2_no_file(tmp_path, args):
    out = tmp_path / "nan.csv"
    code = run_cli(args + ["--structure", "sparse:30:3", "--seed", "1", "--output", str(out)])
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["msd", "--cone", "--samples", "2000", "--chunk", "4096"],
    ["lasso", "--m-grid", "10", "--trials", "2", "--samples", "100", "--max-iters", "10"],
    ["lasso", "--m-grid", "10", "--trials", "2", "--samples", "100", "--tol", "1e-12"],
], ids=["msd-chunk", "lasso-max-iters", "lasso-tol"])
def test_removed_settings_exit_2_no_file(tmp_path, args):
    # the chunk layout and the solver's stop rule are constants, not options
    out = tmp_path / "removed.csv"
    with pytest.raises(SystemExit) as exc_info:
        run_cli(args + ["--structure", "sparse:30:3", "--seed", "1", "--output", str(out)])
    assert exc_info.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["msd", "--lambda-grid", "0:0.5:inf", "--samples", "2000"],
    ["denoise", "--estimator", "regularized", "--lambda", "1.0",
     "--sigma-grid", "0.001:0.001:inf", "--trials", "5"],
    ["lasso", "--m-grid", "inf", "--trials", "2", "--samples", "100"],
    ["lasso", "--m-grid", "20:20:inf", "--trials", "2", "--samples", "100"],
    ["lasso", "--m-grid", "10:inf:20", "--trials", "2", "--samples", "100"],
    ["lasso", "--m-grid", "20.7", "--trials", "2", "--samples", "100"],
    ["lasso", "--m-grid", "10:2.5:20", "--trials", "2", "--samples", "100"],
], ids=["lambda-stop", "sigma-stop", "m-single", "m-stop", "m-step", "m-fraction",
        "m-fraction-step"])
def test_non_finite_grid_bounds_exit_2_no_file(tmp_path, args):
    # an infinite bound once overflowed in the grid's length or in int(m); a
    # fractional m is rejected, not truncated
    out = tmp_path / "grid.csv"
    code = run_cli(args + ["--structure", "sparse:30:3", "--seed", "1", "--output", str(out)])
    assert code == 2
    assert not out.exists()


# ---------------------------------------------------------------------------
# result files
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fail, error", [("write", UnicodeEncodeError), ("rename", OSError)])
def test_failed_write_keeps_target_and_leaves_no_temporary(tmp_path, monkeypatch, fail, error):
    out = tmp_path / "result.csv"
    out.write_bytes(b"earlier result\n")
    text = "row\n" * 10_000
    if fail == "write":
        text += "\ud800"       # a lone surrogate: UTF-8 encoding raises
    else:
        def refuse(*args):
            raise OSError("rename refused")
        monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(error):
        cli._write(str(out), text)
    assert out.read_bytes() == b"earlier result\n"
    assert os.listdir(tmp_path) == ["result.csv"]


def test_missing_output_directory_exits_2_before_trials(tmp_path, noise_draws, capsys):
    out = tmp_path / "missing" / "x.csv"
    code = run_cli(["denoise", "--structure", "sparse:200:10", "--seed", "4",
                    "--estimator", "regularized", "--lambda", "2", "--trials", "400",
                    "--output", str(out)])
    assert code == 2
    assert "error: cannot write" in capsys.readouterr().err
    assert not out.parent.exists()
    assert noise_draws == []


@pytest.mark.parametrize("target", ["directory", "rename"])
def test_unwritable_output_exits_2_without_traceback(tmp_path, monkeypatch, capsys, target):
    if target == "directory":
        out = tmp_path / "taken"
        out.mkdir()
    else:
        out = tmp_path / "b.csv"

        def refuse(*args):
            raise OSError("rename refused")
        monkeypatch.setattr(os, "replace", refuse)
    code = run_cli(["bounds", "--structure", "sparse:10:2", "--seed", "1",
                    "--output", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: cannot write {out}")
    assert "Traceback" not in err
    assert sorted(os.listdir(tmp_path)) == (["taken"] if target == "directory" else [])


def test_write_to_pipe_writes_through(tmp_path):
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    got = []
    reader = threading.Thread(target=lambda: got.append(pipe.read_text()), daemon=True)
    reader.start()
    cli._write(str(pipe), "a,b\n")
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert got == ["a,b\n"]
    assert stat.S_ISFIFO(os.stat(pipe).st_mode)


# ---------------------------------------------------------------------------
# determinism and process-level behavior
# ---------------------------------------------------------------------------

def test_byte_identical_reruns(tmp_path):
    for name, args in [
        ("msd", ["msd", "--structure", "sparse:30:3", "--seed", "9",
                 "--lambda-grid", "0:1:2", "--cone", "--samples", "3000"]),
        ("bounds", ["bounds", "--structure", "block:6:4:2", "--seed", "9",
                    "--lambda", "5.0"]),
        ("denoise", ["denoise", "--structure", "sparse:30:3", "--seed", "9",
                     "--estimator", "regularized", "--lambda", "1.0", "--trials", "8"]),
        ("lasso", ["lasso", "--structure", "sparse:30:3", "--seed", "9",
                   "--m-grid", "8:10:28", "--trials", "4", "--samples", "2000"]),
    ]:
        a = tmp_path / f"{name}_a.out"
        b = tmp_path / f"{name}_b.out"
        assert run_cli(args + ["--output", str(a)]) == 0
        assert run_cli(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), name


def test_reused_parser_keeps_no_options_between_calls(tmp_path):
    # one parser serves every call of a process; an option given to one job
    # must not reach the next, which writes what a fresh process writes
    base = ["denoise", "--structure", "sparse:30:3", "--seed", "9",
            "--estimator", "regularized", "--lambda", "1.0", "--trials", "4"]
    assert cli.build_parser() is cli.build_parser()
    assert run_cli(base + ["--sigma-grid", "0.1:0.1:0.3",
                           "--output", str(tmp_path / "grid.csv")]) == 0
    assert run_cli(base + ["--output", str(tmp_path / "same.csv")]) == 0
    fresh = tmp_path / "fresh.csv"
    proc = subprocess.run([sys.executable, "-m", "proxmse.cli", *base, "--output", str(fresh)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "same.csv").read_bytes() == fresh.read_bytes()
    config = json.loads(read_lines(fresh)[0][len("# config: "):])
    assert len(config["sigma_grid"]) == 8


def test_entry_point_help_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "proxmse.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "msd" in proc.stdout and "lasso" in proc.stdout


def test_missing_seed_exits_2():
    proc = subprocess.run(
        [sys.executable, "-m", "proxmse.cli", "msd", "--structure", "sparse:10:2",
         "--cone", "--output", os.devnull],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
