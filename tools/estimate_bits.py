"""Write the bits of the Monte Carlo estimates, for byte comparisons across checkouts.

    PYTHONPATH=src python tools/estimate_bits.py OUTDIR

For each structure of the msd jobs in `tools/cli_jobs.py`, seeds 1 and 2 and
four (samples, chunk) layouts, it writes the `repr` of every field of
`geometry.estimate(lams, cone=True, optimal=True)` on the jobs' lambda grid
to `OUTDIR/<kind>.txt`. No CLI job writes the tuned lam*, so this is where
its bits are compared: run it once per checkout and `diff -r` the outputs.
"""

from __future__ import annotations

import dataclasses
import os
import sys

from cli_jobs import STRUCTURES
from proxmse import cli, geometry

# a benchmark-sized call; the tiled job's layout, with a one-sample last chunk;
# many chunks past the lead of LEAD samples; one call of at most LEAD samples
LAYOUTS = ((20000, 4096), (8707, 4353), (300, 64), (200, 4096))
LAMS = cli.parse_grid("0:0.5:3")

if __name__ == "__main__":
    os.makedirs(sys.argv[1], exist_ok=True)
    for desc in STRUCTURES:
        with open(os.path.join(sys.argv[1], f"{desc.split(':')[0]}.txt"), "w") as out:
            for seed in (1, 2):
                s = cli.parse_structure(desc, seed, "uniform")[0].structure
                for samples, chunk in LAYOUTS:
                    est = geometry.estimate(s, geometry.McConfig(samples, seed, chunk), LAMS,
                                            cone=True, optimal=True)
                    for field in dataclasses.fields(est):
                        out.write(f"seed {seed}, {samples} samples, chunk {chunk}, "
                                  f"{field.name}: {getattr(est, field.name)!r}\n")
