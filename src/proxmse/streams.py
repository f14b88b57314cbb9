"""Seeded, counter-based random streams.

All randomness in the package flows through :func:`stream`. Streams are
keyed by an explicit user seed plus an integer path (Monte Carlo chunk
index, noise level index, measurement count and trial, ...), so any
sub-computation can be reproduced in isolation and parallel layouts cannot
change results. A stream is a Philox generator keyed by
``SeedSequence(seed, spawn_key=path)``; a caller that needs many rows
draws them consecutively from one stream.
"""

from __future__ import annotations

import numpy as np

from .errors import require_int


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return a Philox generator for the given seed and stream path.

    Equal (seed, path) pairs always yield identical streams; distinct
    paths under one seed are statistically independent. The seed and the
    path entries must be nonnegative integers (numpy integers included); a
    float or a bool raises TypeError instead of being truncated.
    """
    ss = np.random.SeedSequence(entropy=require_int(seed, "seed", 0),
                                spawn_key=tuple(require_int(p, "stream path entry", 0)
                                                for p in path))
    return np.random.Generator(np.random.Philox(ss))
