"""The four workloads: their inputs, operations and output checks.

A workload runs in rounds. Round r draws its inputs from the seed
``op_seed(seed, r)``, so the same workload seed always yields the same
rounds, and every round is new input. Operations are calls into public
functions of the library; each returns an OpRecord with its wall time and
how much of it passed its checks. Statistical checks pool all rounds of a
run (``pooled_failures``); a pooled check that fails marks every operation
that fed it as failed.
"""

from __future__ import annotations

import csv
import io
import math
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

from proxmse import cli, denoise, geometry, lasso, signals
from proxmse.geometry import McConfig

import stats
from spans import NULL

# Statistical checks accept an estimate when it lies within Z standard
# errors of its reference band. A run pools one test per reference, but a
# comparison of two commits takes dozens of runs on fresh seeds, and at 3
# standard errors the 31 correlated curve points alone rejected correct
# output for 2 of 300 seeds.
Z = 4.0
LAMBDA_GRID = "0:0.1:3"
CHUNK = 4096  # McConfig's default chunk, which every estimator here uses
# Monte Carlo samples per estimator call: five chunks, the size of the cone
# MSD that lasso.sweep_measurements estimates when given no d_reference. The
# CLI's default is 100,000; either way optimal_lambda holds many chunks.
MC_SAMPLES = 20_000
# Cone MSD of sparse:500:20 under the l1 norm. It depends only on (n, k);
# measured as 86.44 with msd_cone over 300,000 samples.
CONE_MSD_SPARSE = 86.44


def op_seed(seed: int, r: int) -> int:
    return seed * 10_000 + r


@dataclass
class OpRecord:
    kind: str
    seconds: float
    work: int            # Gaussian samples or trials processed
    attempted: int       # checked units: estimator calls, LASSO trials, CLI jobs
    failed: int = 0
    data: dict = field(default_factory=dict)


def _failure(kind: str, exc: BaseException, attempted: int) -> OpRecord:
    print(f"operation {kind} raised:", file=sys.stderr)
    traceback.print_exception(exc, file=sys.stderr)
    return OpRecord(kind, math.nan, 0, attempted, attempted)


def _within(value: float, ref: float, rel: float, se: float) -> bool:
    return abs(value - ref) <= rel * abs(ref) + Z * se


class Workload:
    """Common shape; subclasses define instances, rounds and checks."""

    name = ""
    unit = ""                 # what throughput_per_s counts
    trace_rounds = (0,)       # rounds a traced pass repeats

    _tmp = None

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.instances = self.make_instances(seed)
        if self._tmp is None:
            # result files stay inside the checkout, under an ignored directory
            root = Path(__file__).resolve().parent.parent / ".perfbench"
            root.mkdir(exist_ok=True)
            self._tmp = tempfile.TemporaryDirectory(dir=root)

    def untimed_ops(self) -> list[OpRecord]:
        """Operations run after the timed loop: checked, never timed."""
        return []

    def close(self) -> None:
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    def output(self, name: str) -> str:
        """Path of a CLI result file in this run's temporary directory."""
        return str(Path(self._tmp.name) / name)

    def first(self) -> signals.SignalInstance:
        return self.instances[0][1]

    # --- traced-run probe parameters; see layers.py -----------------------

    def mc_probe(self) -> list:
        """(structure, McConfig) pairs the geometry probe runs."""
        return [(self.first().structure, McConfig(CHUNK, self.seed))]

    def lasso_probe(self):
        """(instance, m grid, trials) for the lasso probe: well above the transition."""
        inst = self.first()
        return inst, [3 * inst.ambient_dim // 4], 2

    def denoise_probe(self) -> list:
        """(label, thunk, trials) direct denoise calls on the workload's instance."""
        inst = self.first()
        grid = denoise.default_sigma_grid(inst, points=2).tolist()
        lam = geometry.table1_threshold(inst.structure)
        trials = 10
        return [
            ("regularized", lambda: denoise.run_regularized(inst, lam, grid, trials, self.seed),
             trials * len(grid)),
            ("constrained", lambda: denoise.run_constrained(inst, grid, trials, self.seed),
             trials * len(grid)),
        ]

    def vec_dim(self) -> int:
        return self.first().ambient_dim

    def mat_d(self) -> int:
        return int(round(math.sqrt(self.vec_dim())))


# ---------------------------------------------------------------------------
# Monte Carlo estimators
# ---------------------------------------------------------------------------

class McSpec(NamedTuple):
    label: str
    cli: str            # the same structure as the CLI writes it
    law: str            # magnitude law
    make: Callable      # seed -> SignalInstance


class McWorkload(Workload):
    """msd_cone, msd_lambda_curve and optimal_lambda on shared samples.

    In a round the three estimators of one structure share one McConfig, so
    common random numbers make the sandwich cone <= tuned <= every curve
    point an exact check on each round.
    """

    unit = "samples"

    def __init__(self, name: str, specs: list[McSpec]):
        self.name = name
        self.specs = specs

    def make_instances(self, seed: int) -> list:
        return [(spec.label, spec.make(seed)) for spec in self.specs]

    def warmup(self) -> None:
        mc = McConfig(256, self.seed)
        lams = cli.parse_grid(LAMBDA_GRID)
        for _, inst in self.instances:
            geometry.msd_cone(inst.structure, mc)
            geometry.msd_lambda_curve(inst.structure, lams, mc)
            geometry.optimal_lambda(inst.structure, mc)

    def mc_probe(self) -> list:
        return [(inst.structure, McConfig(MC_SAMPLES, self.seed)) for _, inst in self.instances]

    def cli_probe(self) -> list:
        out = []
        for spec, (_, inst) in zip(self.specs, self.instances):
            mc = McConfig(1024, self.seed)
            argv = ["msd", "--structure", spec.cli, "--magnitude-law", spec.law,
                    "--lambda-grid", LAMBDA_GRID, "--cone", "--samples", "1024",
                    "--seed", str(self.seed), "--output", self.output("msd.csv")]
            s = inst.structure

            def direct(s=s, mc=mc):
                geometry.msd_lambda_curve(s, cli.parse_grid(LAMBDA_GRID), mc)
                geometry.msd_cone(s, mc)
            out.append((argv, direct))
        return out

    def run_round(self, r: int, tracer) -> list[OpRecord]:
        lams = cli.parse_grid(LAMBDA_GRID)
        out = []
        for label, inst in self.instances:
            s = inst.structure
            mc = McConfig(MC_SAMPLES, op_seed(self.seed, r))
            calls = (
                ("cone", "geometry.msd_cone", lambda: geometry.msd_cone(s, mc)),
                ("curve", "geometry.msd_lambda_curve",
                 lambda: geometry.msd_lambda_curve(s, lams, mc)),
                ("optlam", "geometry.optimal_lambda", lambda: geometry.optimal_lambda(s, mc)),
            )
            group = {}
            for kind, span, call in calls:
                key = f"{label}/{kind}"
                try:
                    res, dt = tracer.timed(span, call)
                except Exception as exc:  # the run goes on; the call counts as failed
                    out.append(_failure(key, exc, 1))
                    continue
                rec = OpRecord(key, dt, MC_SAMPLES, 1, data={"result": res})
                group[kind] = rec
                out.append(rec)
            if len(group) == 3 and not self._sandwich(s, group, MC_SAMPLES):
                for rec in group.values():
                    rec.failed = 1
        return out

    @staticmethod
    def _sandwich(s, group: dict, n: int) -> bool:
        cone = group["cone"].data["result"]
        curve = group["curve"].data["result"]
        lam_star, tuned = group["optlam"].data["result"]
        means = [cone.mean, tuned.mean] + [c.mean for c in curve]
        if not all(math.isfinite(v) for v in means + [lam_star]):
            return False
        if cone.samples != n or tuned.samples != n or any(c.samples != n for c in curve):
            return False
        gc = geometry.geometry_constants(s)
        gap = 2.0 * gc.subgradient_radius / gc.sphere_max_value
        slack = 1e-9 * max(abs(v) for v in means)
        return (cone.mean <= tuned.mean + slack
                and tuned.mean <= min(c.mean for c in curve) + slack
                and tuned.mean <= cone.mean + gap
                and lam_star >= 0.0)


class McSparse(McWorkload):
    def __init__(self):
        super().__init__(
            "mc_sparse",
            [McSpec("sparse", "sparse:500:20", "unit",
                    lambda seed: signals.make_sparse(500, 20, "unit", seed=seed))],
        )

    def pooled_failures(self, records: list[OpRecord]) -> dict[str, str]:
        """Cone MSD within 3% of 89 and every curve point on the exact l1 curve."""
        bad = {}
        cones = [r.data["result"] for r in records if r.kind == "sparse/cone" and r.data]
        if cones:
            mean, se = stats.pooled([(c.mean, c.stderr, c.samples) for c in cones])
            if not _within(mean, 89.0, 0.03, se):
                bad["sparse/cone"] = f"cone MSD {mean:.3f} +- {se:.3f} not within 3% of 89"
        curves = [r.data["result"] for r in records if r.kind == "sparse/curve" and r.data]
        if curves:
            for j, est in enumerate(curves[0]):
                mean, se = stats.pooled([(c[j].mean, c[j].stderr, c[j].samples) for c in curves])
                exact = geometry.msd_lambda_exact_l1(500, 20, est.lam)
                if not _within(mean, exact, 0.0, se):
                    bad["sparse/curve"] = (f"curve at lam={est.lam:.1f}: {mean:.3f} +- {se:.3f}"
                                           f" vs exact {exact:.3f}")
                    break
        return bad


class McLowrankBlock(McWorkload):
    def __init__(self):
        super().__init__(
            "mc_lowrank_block",
            [McSpec("lowrank", "lowrank:30:4", "uniform",
                    lambda seed: signals.make_low_rank(30, 4, seed=seed)),
             McSpec("block", "block:50:10:5", "uniform",
                    lambda seed: signals.make_block_sparse(50, 10, 5, seed=seed))],
        )

    def vec_dim(self) -> int:
        return self.instances[1][1].ambient_dim

    def mat_d(self) -> int:
        return self.first().structure.d

    def pooled_failures(self, records: list[OpRecord]) -> dict[str, str]:
        """Low-rank cone MSD within 5% of 389."""
        cones = [r.data["result"] for r in records if r.kind == "lowrank/cone" and r.data]
        if cones:
            mean, se = stats.pooled([(c.mean, c.stderr, c.samples) for c in cones])
            if not _within(mean, 389.0, 0.05, se):
                return {"lowrank/cone": f"cone MSD {mean:.3f} +- {se:.3f} not within 5% of 389"}
        return {}


# ---------------------------------------------------------------------------
# Constrained-LASSO sweeps
# ---------------------------------------------------------------------------

class LassoTransition(Workload):
    """sweep_measurements on sparse:500:20 across the phase transition.

    m = 40 lies below the cone MSD (about 86) and 140 just above it, where
    solver iterations dominate; at 200 and 400 building the Haar operator
    dominates. 60 to 120 are left out: projected gradient has a heavy tail
    there. Single trials ran to 379,538 iterations at m = 80, and at m = 60
    (workload seed 307, round 7) one hit the 600,000-iteration limit, so its
    sweep raised RunQualityError.
    """

    name = "lasso_transition"
    unit = "trials"
    trace_rounds = (0, 1, 2, 3)
    M_GRID = (40, 140, 200, 400)
    TRIALS = 2                  # per m and round; the smallest the library accepts
    D_REF = 89.0                # the paper's cone MSD; fixed, so no Monte Carlo runs

    def make_instances(self, seed: int) -> list:
        return [("sparse", signals.make_sparse(500, 20, "unit", seed=seed))]

    def warmup(self) -> None:
        lasso.sweep_measurements(self.first(), self.M_GRID[-1:], trials=2, seed=self.seed,
                                 d_reference=self.D_REF)

    def lasso_probe(self):
        return self.first(), list(self.M_GRID), self.TRIALS

    def cli_probe(self) -> list:
        inst = self.first()
        argv = ["lasso", "--structure", "sparse:500:20", "--magnitude-law", "unit",
                "--m-grid", "200:200:400", "--trials", "2", "--samples", "1024",
                "--seed", str(self.seed), "--output", self.output("lasso.csv")]

        def direct():
            lasso.sweep_measurements(inst, [200, 400], sigma=lasso.default_sigma(inst),
                                     trials=2, seed=self.seed,
                                     mc=McConfig(1024, self.seed))
        return [(argv, direct)]

    def run_round(self, r: int, tracer) -> list[OpRecord]:
        inst = self.first()
        attempted = len(self.M_GRID) * self.TRIALS
        try:
            (records, diags), dt = tracer.timed(
                "lasso.sweep_measurements", lasso.sweep_measurements, inst, self.M_GRID,
                trials=self.TRIALS, seed=op_seed(self.seed, r), d_reference=self.D_REF,
                collect=True)
        except Exception as exc:  # the run goes on; every trial counts as failed
            return [_failure("sweep", exc, attempted)]
        failed = sum(rec.excluded_trials for rec in records)
        iterations = [d.iterations for m in self.M_GRID for d in diags[m]]
        for m in self.M_GRID:
            for d in diags[m]:
                # criterion 9: never worse than the truth, energy split sound
                if not (d.cost <= d.cost_at_truth
                        and d.energy <= d.noise_energy * (1 + 1e-6)):
                    failed += 1
        tracer.count("lasso.iterations", sum(iterations))
        tracer.peak("lasso.iter_max", max(iterations, default=0))
        tracer.count("lasso.excluded", sum(rec.excluded_trials for rec in records))
        return [OpRecord("sweep", dt, attempted - sum(rec.excluded_trials for rec in records),
                         attempted, failed, data={"diags": diags})]

    def pooled_failures(self, records: list[OpRecord]) -> dict[str, str]:
        """Criterion-8 bands per m, and eta + F = m, over all trials of the run."""
        for m in self.M_GRID:
            trials = [d for r in records if r.data for d in r.data["diags"][m]]
            if len(trials) < 2:
                continue
            eta, eta_se = stats.sample_mean_se([d.eta for d in trials])
            f, f_se = stats.sample_mean_se([d.f for d in trials])
            if m <= 70 and not _within(eta, m, 0.0, eta_se):
                return {"sweep": f"m={m}: eta {eta:.2f} +- {eta_se:.2f} not at m"}
            # above the transition eta flattens at the cone MSD
            if (m >= 120 and abs(eta - CONE_MSD_SPARSE)
                    > 0.05 * math.sqrt(500) + Z * eta_se):
                return {"sweep": f"m={m}: eta {eta:.2f} +- {eta_se:.2f} "
                                 f"not at the cone MSD {CONE_MSD_SPARSE}"}
            if not _within(eta + f, m, 0.0, math.hypot(eta_se, f_se)):
                return {"sweep": f"m={m}: eta + F = {eta + f:.2f} not at m"}
        return {}


# ---------------------------------------------------------------------------
# Denoising through the command line
# ---------------------------------------------------------------------------

class DenoiseBatch(Workload):
    """cli.main denoise jobs writing CSV files.

    Trial counts are set so that the five jobs take similar time: a sparse
    trial costs about 0.1 ms, a low-rank one about 0.5 ms.
    """

    name = "denoise_batch"
    unit = "trials"
    trace_rounds = (0, 1, 2)
    SIGMAS = 8                  # default_sigma_grid points
    JOBS = (
        ("sparse/regularized", "sparse:200:10", ("regularized", 2.0), 100),
        ("sparse/constrained", "sparse:200:10", ("constrained", None), 100),
        ("sparse/mixed", "sparse:200:10", ("mixed", 1.5), 100),
        ("lowrank/regularized", "lowrank:30:4", ("regularized", 11.0), 25),
        ("lowrank/constrained", "lowrank:30:4", ("constrained", None), 25),
    )

    def __init__(self):
        self._bytes = {}

    def make_instances(self, seed: int) -> list:
        return [(spec, cli.parse_structure(spec, seed, "uniform")[0])
                for spec in ("sparse:200:10", "lowrank:30:4")]

    def _argv(self, job, seed: int, trials: int | None = None) -> list[str]:
        kind, spec, (estimator, lam), default_trials = job
        argv = ["denoise", "--structure", spec, "--estimator", estimator,
                "--trials", str(trials or default_trials), "--seed", str(seed)]
        if lam is not None:
            argv += ["--lambda", repr(lam)]
        return argv + ["--output", self.output(kind.replace("/", "_") + ".csv")]

    def warmup(self) -> None:
        if cli.main(self._argv(self.JOBS[1], self.seed, trials=2)) != 0:
            raise RuntimeError("warm-up denoise job failed")

    def untimed_ops(self) -> list[OpRecord]:
        """Round 0 again: each job must write the bytes it wrote before."""
        return self.run_round(0, NULL)

    def run_round(self, r: int, tracer) -> list[OpRecord]:
        seed = op_seed(self.seed, r)
        out = []
        for job in self.JOBS:
            kind, _, _, trials = job
            argv = self._argv(job, seed)
            try:
                code, dt = tracer.timed("cli.main", cli.main, argv)
                data = Path(argv[-1]).read_bytes()
            except Exception as exc:  # the run goes on; the job counts as failed
                out.append(_failure(kind, exc, 1))
                continue
            rows = _read_rows(data)
            ok = (code == 0 and len(rows) == self.SIGMAS
                  and all(math.isfinite(float(row["nmse_mean"])) for row in rows))
            # criterion 11: a job repeated with its seed writes the same bytes
            ok &= self._bytes.setdefault((kind, seed), data) == data
            out.append(OpRecord(kind, dt, self.SIGMAS * trials, 1, 0 if ok else 1,
                                data={"rows": rows}))
        return out

    def pooled_failures(self, records: list[OpRecord]) -> dict[str, str]:
        bad = {}
        reg = [r.data["rows"][0] for r in records
               if r.kind == "sparse/regularized" and r.data.get("rows")]
        if reg:
            mean, se = stats.pooled([(float(x["nmse_mean"]), float(x["nmse_stderr"]),
                                      int(x["trials"])) for x in reg])
            exact = geometry.msd_lambda_exact_l1(200, 10, 2.0)
            if not _within(mean, exact, 0.05, se):
                bad["sparse/regularized"] = f"NMSE {mean:.3f} +- {se:.3f} vs exact {exact:.3f}"
        mixed = [r.data["rows"] for r in records
                 if r.kind == "sparse/mixed" and r.data.get("rows")]
        if mixed:
            for j in range(self.SIGMAS):
                rows = [m[j] for m in mixed]
                nmse, nmse_se = stats.pooled([(float(x["nmse_mean"]), float(x["nmse_stderr"]),
                                               int(x["trials"])) for x in rows])
                # nmse <= d holds trial by trial (shared noise draws); the CSV
                # carries d's mean only, so the NMSE's stderr sets the slack
                d, _ = stats.pooled([(float(x["d_reference"]), 0.0, int(x["trials"]))
                                     for x in rows])
                if nmse > d + Z * nmse_se:
                    bad["sparse/mixed"] = f"sigma index {j}: NMSE {nmse:.3f} above {d:.3f}"
                    break
        return bad

    def denoise_probe(self) -> list:
        out = []
        for job in self.JOBS:
            kind, spec, (estimator, lam), trials = job
            inst = cli.parse_structure(spec, self.seed, "uniform")[0]
            grid = denoise.default_sigma_grid(inst).tolist()
            if estimator == "regularized":
                thunk = (lambda inst=inst, lam=lam, grid=grid, trials=trials:
                         denoise.run_regularized(inst, lam, grid, trials, self.seed))
            elif estimator == "constrained":
                thunk = (lambda inst=inst, grid=grid, trials=trials:
                         denoise.run_constrained(inst, grid, trials, self.seed))
            else:
                thunk = (lambda inst=inst, lam=lam, grid=grid, trials=trials:
                         denoise.run_mixed_nonneg_sparse(signals.nonnegative(inst), lam,
                                                         grid, trials, self.seed))
            out.append((kind, thunk, trials * len(grid)))
        return out

    def cli_probe(self) -> list:
        return [(self._argv(job, self.seed), thunk)
                for job, (_, thunk, _) in zip(self.JOBS, self.denoise_probe())]

    def mat_d(self) -> int:
        return self.instances[1][1].structure.d


def _read_rows(data: bytes) -> list[dict]:
    text = data.decode()
    body = "\n".join(line for line in text.splitlines() if not line.startswith("#"))
    return list(csv.DictReader(io.StringIO(body)))


WORKLOADS = {
    "mc_sparse": McSparse,
    "mc_lowrank_block": McLowrankBlock,
    "lasso_transition": LassoTransition,
    "denoise_batch": DenoiseBatch,
}
