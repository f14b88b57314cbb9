"""Run the fixed-seed CLI jobs whose result files must not change by accident.

    PYTHONPATH=src python tools/cli_jobs.py OUTDIR

Each of the 20 jobs below is one `proxmse` command line with a fixed seed.
It writes one result file, `OUTDIR/<name>.csv` or `.json`, and under its
seed the file is byte-identical from run to run (acceptance criterion 11).
The script exits 1 if any job exits nonzero, after running all of them.
It prints each job's exit code and wall seconds on stderr, so one run also
times the jobs end to end (the 8 denoise jobs among them).

To see whether a change alters any output, run the script once per
checkout, pointing PYTHONPATH at that checkout's `src`, and compare the two
directories with `diff -r`; see README.md.
"""

from __future__ import annotations

import os
import sys
import time

from proxmse import cli

STRUCTURES = ("sparse:500:20", "lowrank:30:4", "block:50:10:5")
DENOISE = ["denoise", "--seed", "11", "--trials", "50"]
LASSO = ["lasso", "--seed", "7", "--trials", "10", "--samples", "5000"]

JOBS = {
    **{f"msd_{s.split(':')[0]}": ["msd", "--structure", s, "--lambda-grid", "0:0.5:3",
                                  "--cone", "--samples", "20000", "--format", "json",
                                  "--seed", "1"] for s in STRUCTURES},
    # geometry draws each 4096-sample chunk of sparse:500:20 (500 entries a
    # sample) in 262-row tiles: 4096 = 15 * 262 + 166 ends each chunk in a
    # short tile, and 8193 = 2 * 4096 + 1 leaves a one-sample last chunk
    "msd_sparse_tiles": ["msd", "--structure", "sparse:500:20", "--lambda-grid", "0:0.5:3",
                         "--cone", "--samples", "8193", "--format", "json", "--seed", "1"],
    **{f"bounds_{s.split(':')[0]}": ["bounds", "--structure", s, "--lambda", "11",
                                     "--cone-msd", "389", "--seed", "1"] for s in STRUCTURES},
    "denoise_sparse_regularized": DENOISE + ["--structure", "sparse:200:10", "--estimator",
                                             "regularized", "--lambda", "2.0",
                                             "--reference-samples", "4000"],
    "denoise_sparse_constrained": DENOISE + ["--structure", "sparse:200:10", "--estimator",
                                             "constrained", "--reference-samples", "4000"],
    "denoise_sparse_mixed": DENOISE + ["--structure", "sparse:200:10", "--estimator", "mixed",
                                       "--lambda", "2.0"],
    "denoise_block_regularized": DENOISE + ["--structure", "block:20:5:3", "--estimator",
                                            "regularized", "--lambda", "4.5"],
    "denoise_block_constrained": DENOISE + ["--structure", "block:20:5:3", "--estimator",
                                            "constrained"],
    "denoise_lowrank_regularized": DENOISE + ["--structure", "lowrank:30:4", "--estimator",
                                              "regularized", "--lambda", "11"],
    "denoise_lowrank_constrained": DENOISE + ["--structure", "lowrank:30:4", "--estimator",
                                              "constrained"],
    # a noise level draws its trials in blocks of 64 rows from one stream:
    # 130 = 2 * 64 + 2 spans two full blocks and a partial one
    "denoise_sparse_blocks": ["denoise", "--seed", "11", "--trials", "130", "--structure",
                              "sparse:200:10", "--estimator", "regularized", "--lambda", "2.0"],
    "lasso_sparse": LASSO + ["--structure", "sparse:100:5", "--m-grid", "20:30:80"],
    "lasso_block": LASSO + ["--structure", "block:20:5:3", "--m-grid", "40:30:100"],
    "lasso_lowrank": LASSO + ["--structure", "lowrank:10:2", "--m-grid", "40:30:100"],
    "lasso_sparse_gaussian": LASSO + ["--structure", "sparse:100:5", "--m-grid", "50:30:80",
                                      "--matrix", "gaussian"],
    # Haar bases of k = 80 (P = Q Q^T) and 90 (P = I - Q Q^T) columns, past the
    # width (64) where haar_columns inverts its triangular factor blockwise,
    # and trials that finish on a walked face. From about k = 99 columns on,
    # OpenBLAS's Gram product (syrk) and Cholesky factor of the basis round
    # differently at two threads than at one, so a wider basis would fail the
    # comparison of result files across thread counts
    "lasso_sparse_wide": LASSO + ["--structure", "sparse:300:10", "--m-grid", "80:130:210"],
}


def main(outdir: str) -> int:
    os.makedirs(outdir, exist_ok=True)
    failed = []
    for name, argv in JOBS.items():
        ext = "json" if "json" in argv else "csv"
        path = os.path.join(outdir, f"{name}.{ext}")
        start = time.perf_counter()
        code = cli.main(argv + ["--output", path])
        print(f"{name}: exit {code} in {time.perf_counter() - start:.3f} s", file=sys.stderr)
        if code != 0:
            failed.append(name)
    if failed:
        print(f"failed: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
