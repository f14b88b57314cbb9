"""Command-line front end.

Four subcommands drive the labs and persist results for external plotting:

    proxmse msd     --structure sparse:500:20 --lambda-grid 0:0.1:3 ...
    proxmse bounds  --structure lowrank:30:4 --lambda 10.95 ...
    proxmse denoise --structure sparse:200:10 --estimator regularized ...
    proxmse lasso   --structure sparse:500:20 --m-grid 20:20:400 ...

Structures are given either as colon shorthand (sparse:n:k, block:t:b:k,
lowrank:d:r; the signal seed is --seed) or as a JSON descriptor such as
{"kind":"sparse","n":500,"k":20,"seed":1}. Seeds are mandatory everywhere;
identical configs produce byte-identical output files. ``main`` parses the
structure, runs the subcommand and writes its one file, which embeds the
fully resolved configuration (CSV: leading '#' line; JSON: a "config" field).

Exit codes: 0 success, 2 configuration error (an output directory that does
not exist is found before any work, and a file that cannot be written exits
2 too, as does a configuration whose arrays cannot be allocated: valid counts
whose memory the machine does not have), 3 numerical/run-quality error; a
failed run leaves no partial file.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import denoise as denoise_lab
from . import geometry, lasso, signals
from .errors import BoundNotValidError, NumericalError, RunQualityError


class ConfigError(ValueError):
    pass


def parse_grid(text: str) -> list[float]:
    """Parse 'start:step:stop' (inclusive of stop when it lands on the grid)
    or a single number; every number must be finite, and a grid holds at most
    ``signals.MAX_COUNT`` points, counted before any is built."""
    parts = text.split(":")
    try:
        values = [float(p) for p in parts]
        if not all(math.isfinite(v) for v in values):
            raise ConfigError("numbers must be finite")
        if len(values) == 1:
            return values
        if len(values) == 3:
            start, step, stop = values
            if step <= 0:
                raise ConfigError(f"grid step must be positive in {text!r}")
            last = (stop - start) / step + 1e-9   # inf when the quotient overflows
            if last < 0:
                raise ConfigError(f"empty grid {text!r}")
            if not last < signals.MAX_COUNT:
                raise ConfigError(f"more than {signals.MAX_COUNT} points")
            return (start + np.arange(math.floor(last) + 1) * step).tolist()
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}: {exc}") from exc
    raise ConfigError(f"bad grid {text!r}: use a number or start:step:stop")


def parse_structure(text: str, seed: int, magnitude_law: str) -> tuple[signals.SignalInstance, dict]:
    """Instance plus the resolved descriptor dict (for the config header)."""
    text = text.strip()
    if text.startswith("{"):
        try:
            desc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid structure JSON: {exc}") from exc
        if "seed" not in desc:
            raise ConfigError("structure JSON must carry a seed")
    else:
        kind, *parts = text.split(":")
        try:
            args = [int(p) for p in parts]
        except ValueError as exc:
            raise ConfigError(f"bad structure {text!r}: {exc}") from exc
        fields = signals.DESCRIPTOR_FIELDS.get(kind)
        if fields is None or len(args) != len(fields):
            usage = ", ".join(":".join((k, *f)) for k, f in signals.DESCRIPTOR_FIELDS.items())
            raise ConfigError(f"bad structure {text!r}: use {usage} or JSON")
        desc = {"kind": kind, **dict(zip(fields, args)), "seed": seed}
    # the law the instance is built with, so the config reproduces it
    desc.setdefault("magnitude_law", magnitude_law)
    try:
        return signals.instance_from_descriptor(desc, magnitude_law), desc
    except (TypeError, ValueError) as exc:   # the maker's rejection of a count or the seed
        raise ConfigError(str(exc)) from exc


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def render_output(rows: list[dict], config: dict, fmt: str) -> str:
    """Render rows as CSV (with a '#' config header line) or JSON; the first
    row's keys, in order, are the columns."""
    if fmt == "csv":
        lines = ["# config: " + json.dumps(config, sort_keys=True)]
        lines.append(",".join(rows[0]))
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row.values()))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps({"config": config, "rows": rows}, sort_keys=True) + "\n"
    raise ConfigError(f"unknown format {fmt!r}")


def _write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` whole or not at all: a temporary file in the
    target's directory is renamed over it. A target that is not a regular
    file (a pipe, /dev/stdout) is written in place, as a rename would replace it."""
    path = os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
        return
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    fh = open(tmp, "x", newline="\n")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Subcommand runners: each returns its rows, without the structure label
# column, and the settings it resolved, for the config
# ---------------------------------------------------------------------------

def run_msd(args, inst: signals.SignalInstance) -> tuple[list[dict], dict]:
    if args.lambda_grid is None and not args.cone:
        raise ConfigError("msd needs --lambda-grid and/or --cone")
    mc = geometry.McConfig(samples=args.samples, seed=args.seed)
    lams = parse_grid(args.lambda_grid) if args.lambda_grid is not None else []
    ests = geometry.estimate(inst.structure, mc, lams, cone=args.cone)
    rows = [{"lambda": est.lam, "mean": est.mean, "stderr": est.stderr, "samples": est.samples}
            for est in ests.curve + ([ests.cone] if args.cone else [])]
    return rows, {"lambda_grid": args.lambda_grid, "cone": args.cone, "samples": args.samples}


def run_bounds(args, inst: signals.SignalInstance) -> tuple[list[dict], dict]:
    s = inst.structure
    gc = geometry.geometry_constants(s)
    row = {
        "lambda": args.lam,
        "table1_bound": None,
        "bound_valid": None,
        "threshold": geometry.table1_threshold(s),
        "subgradient_radius": gc.subgradient_radius,
        "sphere_max_value": gc.sphere_max_value,
        "tuning_lipschitz": gc.tuning_lipschitz,
        "dof": gc.dof,
        "sandwich_gap": 2.0 * gc.subgradient_radius / gc.sphere_max_value,
        "cone_msd": args.cone_msd,
        "lipschitz_bound": None,
    }
    if args.lam is not None:
        try:
            row["table1_bound"] = geometry.table1_bound(s, args.lam)
            row["bound_valid"] = True
        except BoundNotValidError:
            row["bound_valid"] = False
    if args.cone_msd is not None:
        row["lipschitz_bound"] = geometry.lipschitz_upper_bound(s, args.cone_msd)
    return [row], {"lambda": args.lam, "cone_msd": args.cone_msd}


def run_denoise(args, inst: signals.SignalInstance) -> tuple[list[dict], dict]:
    estimator = args.estimator
    if (args.lam is None) != (estimator == "constrained"):  # the constrained one has no lambda
        raise ConfigError(f"the {estimator} estimator "
                          f"{'needs' if args.lam is None else 'takes no'} --lambda")
    if estimator == "mixed" and args.reference_samples:
        raise ConfigError("the mixed estimator takes no --reference-samples")
    if args.sigma_grid is not None:
        grid = parse_grid(args.sigma_grid)
    else:
        grid = denoise_lab.default_sigma_grid(inst).tolist()
    # built first, so an invalid sample count fails before any trial runs
    mc = (geometry.McConfig(samples=args.reference_samples, seed=args.seed)
          if args.reference_samples else None)
    d_ref = None
    if estimator == "regularized":
        run = denoise_lab.run_regularized(inst, args.lam, grid, args.trials, args.seed)
        if mc:
            d_ref = geometry.msd_lambda(inst.structure, args.lam, mc).mean
    elif estimator == "constrained":
        run = denoise_lab.run_constrained(inst, grid, args.trials, args.seed)
        if mc:
            d_ref = geometry.msd_cone(inst.structure, mc).mean
    else:
        run = denoise_lab.run_mixed_nonneg_sparse(
            signals.nonnegative(inst), args.lam, grid, args.trials, args.seed
        )
    rows = [{"estimator": estimator, "lambda": run.lam, "sigma": rec.sigma,
             "nmse_mean": rec.nmse_mean, "nmse_stderr": rec.nmse_stderr,
             "trials": rec.trials,
             "d_reference": rec.d_mean if rec.d_mean is not None else d_ref}
            for rec in run.records]
    return rows, {"estimator": estimator, "lambda": args.lam, "sigma_grid": grid,
                  "trials": args.trials, "reference_samples": args.reference_samples}


def run_lasso(args, inst: signals.SignalInstance) -> tuple[list[dict], dict]:
    sigma = lasso.default_sigma(inst, args.sigma_scale)
    records = lasso.sweep_measurements(
        inst, parse_grid(args.m_grid), sigma=sigma, trials=args.trials, matrix_kind=args.matrix,
        seed=args.seed, mc=geometry.McConfig(samples=args.samples, seed=args.seed),
    )
    rows = [{"matrix_kind": args.matrix, **dataclasses.asdict(rec)} for rec in records]
    return rows, {"m_grid": [rec.m for rec in records], "trials": args.trials, "sigma": sigma,
                  "matrix_kind": args.matrix, "samples": args.samples}


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing fills a new
    namespace from it on every call and never changes it."""
    parser = argparse.ArgumentParser(
        prog="proxmse",
        description="Worst-case NMSE geometry of proximal denoising: "
                    "mean-squared-distance estimates, closed-form bounds, "
                    "denoising and constrained-LASSO experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--structure", required=True,
                       help="sparse:n:k | block:t:b:k | lowrank:d:r | JSON descriptor")
        p.add_argument("--seed", type=int, required=True,
                       help="seed for all randomness (mandatory; no wall-clock default)")
        p.add_argument("--output", required=True, help="result file path")
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.add_argument("--magnitude-law", choices=["unit", "uniform"], default="uniform",
                       dest="magnitude_law", help="signal magnitude distribution")

    p = sub.add_parser("msd", help="Monte Carlo mean-squared-distance estimates")
    common(p)
    p.add_argument("--lambda-grid", dest="lambda_grid", help="scale grid start:step:stop")
    p.add_argument("--cone", action="store_true", help="also estimate the cone MSD")
    p.add_argument("--samples", type=int, default=100_000)
    p.set_defaults(runner=run_msd)

    p = sub.add_parser("bounds", help="closed-form bound and sandwich constants")
    common(p)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--cone-msd", dest="cone_msd", type=float, default=None,
                   help="cone MSD value to feed the Lipschitz upper bound")
    p.set_defaults(runner=run_bounds)

    p = sub.add_parser("denoise", help="NMSE-vs-sigma denoising experiments")
    common(p)
    p.add_argument("--estimator", choices=["regularized", "constrained", "mixed"],
                   required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--sigma-grid", dest="sigma_grid", default=None,
                   help="noise grid start:step:stop (default: log grid from the signal)")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--reference-samples", dest="reference_samples", type=int, default=0,
                   help="MC samples for the matching distance reference (0 = skip); "
                        "the mixed estimator takes its reference from its own "
                        "trials and exits 2 on any other value")
    p.set_defaults(runner=run_denoise)

    p = sub.add_parser("lasso", help="constrained-LASSO measurement sweeps")
    common(p)
    p.add_argument("--m-grid", dest="m_grid", required=True)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--sigma-scale", dest="sigma_scale", type=float, default=1e-4,
                   help="noise level as a fraction of ||x0||")
    p.add_argument("--matrix", choices=["unitary", "gaussian"], default="unitary")
    p.add_argument("--samples", type=int, default=20_000,
                   help="MC samples for the cone MSD prediction")
    p.set_defaults(runner=run_lasso)
    return parser


def _check_output(path: str) -> None:
    """Fail before any work when the result file's directory does not exist."""
    directory = os.path.dirname(os.path.realpath(path))
    if not os.path.isdir(directory):
        raise ConfigError(f"cannot write {path}: no directory {directory}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_output(args.output)
        inst, desc = parse_structure(args.structure, args.seed, args.magnitude_law)
        rows, settings = args.runner(args, inst)
        config = {"command": args.command, "structure": desc, "seed": args.seed,
                  "format": args.format, **settings}
        rows = [{"structure": inst.structure.label, **row} for row in rows]
        try:
            _write(args.output, render_output(rows, config, args.format))
        except OSError as exc:
            raise ConfigError(f"cannot write {args.output}: {exc.strerror or exc}") from exc
        return 0
    except (NumericalError, RunQualityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:   # ConfigError and InvalidStructureError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's names the allocation it could not make
        print(f"error: {exc or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
