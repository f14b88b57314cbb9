"""Seeded, counter-based random streams.

All randomness in the package flows through :func:`stream`. Streams are
keyed by an explicit user seed plus an integer path (chunk index, sigma
index, trial index, ...), so any sub-computation can be reproduced in
isolation and parallel layouts cannot change results.

A stream is a Philox generator, which is counter-based: its whole output is
fixed by a 128-bit key, ``SeedSequence(seed, spawn_key=path)``'s first two
uint64 words. :func:`keys` computes those keys for a block of paths at once,
and :class:`NormalRows` draws each key's standard normals through one
generator reset in place, so a block of streams costs neither a
``SeedSequence`` nor a ``Philox`` per path. Both reproduce :func:`stream`
bit for bit; ``tests/test_streams.py`` checks the keys against numpy itself.
"""

from __future__ import annotations

import operator

import numpy as np

# numpy's SeedSequence (numpy/random/bit_generator.pyx), a variant of
# O'Neill's seed_seq: a pool of 4 uint32 words and its hash constants
POOL = 4
MASK32 = 0xFFFFFFFF
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
XSHIFT = 16


def _index(value) -> int:
    """``value`` as a nonnegative Python int; a non-integer raises TypeError."""
    value = operator.index(value)
    if value < 0:
        raise ValueError(f"seeds and stream paths must be nonnegative, got {value}")
    return value


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return a Philox generator for the given seed and stream path.

    Equal (seed, path) pairs always yield identical streams; distinct
    paths under one seed are statistically independent. The seed and the
    path entries must be nonnegative integers (numpy integers included); a
    float raises TypeError instead of being truncated.
    """
    ss = np.random.SeedSequence(entropy=_index(seed),
                                spawn_key=tuple(_index(p) for p in path))
    return np.random.Generator(np.random.Philox(ss))


class _Hash:
    """SeedSequence's ``hashmix`` and ``mix`` on uint32 words.

    The hash constant advances on every ``hashmix`` call whatever the data,
    so the object only counts calls; with (INIT_B, MULT_B) ``hashmix`` is
    ``generate_state``'s output step. The words may be Python ints or int64
    arrays; every result is masked to its low 32 bits, which wrapping int64
    products keep exact.
    """

    def __init__(self, init: int = INIT_A, mult: int = MULT_A):
        self.const, self.mult = init, mult

    def hashmix(self, value):
        value = value ^ self.const
        self.const = self.const * self.mult & MASK32
        value = value * self.const & MASK32
        return value ^ value >> XSHIFT

    @staticmethod
    def mix(x, y):
        result = MIX_MULT_L * x - MIX_MULT_R * y & MASK32
        return result ^ result >> XSHIFT


def _path_words(paths) -> np.ndarray:
    """The rows of ``paths`` as a (B, L) int64 array of one-word path entries.

    An entry that is not an integer raises TypeError; one outside
    [0, 2**32), which numpy would hash as another number of words, raises
    ValueError.
    """
    # nested lists stay Python ints: np.asarray would turn [[1], [2**63]] into floats
    p = paths if isinstance(paths, np.ndarray) else np.array(paths, dtype=object)
    if p.ndim != 2:
        raise ValueError(f"paths must be a 2-D array of rows, got shape {p.shape}")
    if p.dtype == object:
        p = np.array([_index(v) for v in p.ravel()], dtype=object).reshape(p.shape)
    elif p.dtype.kind not in "iu":
        raise TypeError(f"stream paths must be integers, got dtype {p.dtype}")
    if p.size and (p.min() < 0 or p.max() > MASK32):
        raise ValueError("batched stream path entries must lie in [0, 2**32)")
    return p.astype(np.int64)


def keys(seed: int, paths) -> np.ndarray:
    """The (B, 2) uint64 Philox keys of ``stream(seed, *row)`` for each row of ``paths``.

    Row b equals ``SeedSequence(seed, spawn_key=paths[b]).generate_state(2,
    np.uint64)``. With a nonempty path numpy pads the seed's words to the
    pool size, so the pool and its cross-mixes depend on the seed alone and
    are computed once, in Python ints; only the path words are hashed as
    arrays. Path entries must lie in [0, 2**32).
    """
    seed = _index(seed)
    p = _path_words(paths)
    words = [seed >> shift & MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    h = _Hash()
    # entropy beyond the seed's words hashes as zeros, which is numpy's padding
    pool = [h.hashmix(words[i] if i < len(words) else 0) for i in range(POOL)]
    for src in range(POOL):
        for dst in range(POOL):
            if src != dst:
                pool[dst] = h.mix(pool[dst], h.hashmix(pool[src]))
    # seed words beyond the pool, then the path words, each mixed into every pool word
    for word in words[POOL:]:
        for dst in range(POOL):
            pool[dst] = h.mix(pool[dst], h.hashmix(word))
    pool = [np.full(len(p), w, dtype=np.int64) for w in pool]
    for column in p.T:
        for dst in range(POOL):
            pool[dst] = h.mix(pool[dst], h.hashmix(column))
    # generate_state: 4 uint32 words, read little-endian as 2 uint64 words
    out = _Hash(INIT_B, MULT_B)
    state = [out.hashmix(word).astype(np.uint64) for word in pool]
    return np.stack([state[0] | state[1] << np.uint64(32),
                     state[2] | state[3] << np.uint64(32)], axis=1)


class NormalRows:
    """Standard normal rows drawn from per-row Philox keys into one reused buffer.

    ``draw(row_keys)`` fills row b with the ``dim`` normals that
    ``stream(seed, *path_b).standard_normal(dim)`` returns, where
    ``row_keys[b]`` is that path's key from :func:`keys`. One Philox is
    reset in place per row (key, counter 0, empty buffer: the state a fresh
    ``Philox(SeedSequence)`` starts in). The returned array is a view of the
    buffer, so it holds only until the next call.
    """

    def __init__(self, rows: int, dim: int):
        self._bits = np.random.Philox(0)
        self._gen = np.random.Generator(self._bits)
        self._state = {"bit_generator": "Philox",
                       "state": {"counter": np.zeros(4, dtype=np.uint64),
                                 "key": np.zeros(2, dtype=np.uint64)},
                       "buffer": np.zeros(4, dtype=np.uint64),
                       "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        self._out = np.empty((rows, dim))

    def draw(self, row_keys: np.ndarray) -> np.ndarray:
        if len(row_keys) > len(self._out):
            raise ValueError(f"{len(row_keys)} keys for a buffer of {len(self._out)} rows")
        out = self._out[:len(row_keys)]
        state = self._state
        for row, key in zip(out, row_keys):
            state["state"]["key"] = key
            self._bits.state = state
            self._gen.standard_normal(out=row)
        return out
