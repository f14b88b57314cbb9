"""Write the bits of the Monte Carlo estimates, for byte comparisons across checkouts.

    PYTHONPATH=src python tools/estimate_bits.py OUTDIR

For each structure of the msd jobs in `tools/cli_jobs.py`, seeds 1 and 2 and
three sample counts (drawn in chunks of `geometry.CHUNK` samples), it writes
the `repr` of every field of
`geometry.estimate(lams, cone=True, optimal=True)` on the jobs' lambda grid
to `OUTDIR/<kind>.txt`. It does the same for a weighted sparse structure
with non-unit and zero weights (`weighted.txt`), the one kind whose
bracket keeps a weight with each threshold, and for sparse:40:40
(`full.txt`), whose full support leaves no clip threshold, so that each
sample's cone minimum is c1/c2 or 0. No CLI job writes the tuned lam*, so
this is where its bits are compared: run it once per checkout and
`diff -r` the outputs.
"""

from __future__ import annotations

import dataclasses
import os
import sys

import numpy as np
from cli_jobs import STRUCTURES
from proxmse import cli, geometry, signals

# a benchmark-sized call of five chunks; the tiled job's layout, with a
# one-sample last chunk; one call of at most LEAD samples
SAMPLES = (20000, 8193, 200)
LAMS = cli.parse_grid("0:0.5:3")
# the structure of each kind, built from its seed; the weighted one has four
# regions, with weights 1, 2.5, 0 and 0.5, taking coordinates in turn, and full
# (sparse:40:40) has no clip threshold
DESCS = {desc.split(":")[0]: desc for desc in STRUCTURES} | {"full": "sparse:40:40"}
KINDS = {kind: (lambda seed, desc=desc:
                cli.parse_structure(desc, seed, "uniform")[0].structure)
         for kind, desc in DESCS.items()}
KINDS["weighted"] = lambda seed: signals.make_weighted_sparse(
    300, 12, np.arange(300) % 4, [1.0, 2.5, 0.0, 0.5], seed=seed).structure

if __name__ == "__main__":
    os.makedirs(sys.argv[1], exist_ok=True)
    for kind, make in KINDS.items():
        with open(os.path.join(sys.argv[1], f"{kind}.txt"), "w") as out:
            for seed in (1, 2):
                s = make(seed)
                for samples in SAMPLES:
                    est = geometry.estimate(s, geometry.McConfig(samples, seed), LAMS,
                                            cone=True, optimal=True)
                    for field in dataclasses.fields(est):
                        out.write(f"seed {seed}, {samples} samples, "
                                  f"{field.name}: {getattr(est, field.name)!r}\n")
