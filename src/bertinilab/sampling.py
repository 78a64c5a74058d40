"""Seeded, reproducible random sampling.

All Monte Carlo experiments draw from counter-based Philox streams (the
numpy implementation), one substream per chunk of the samples, keyed by
(master seed, chunk index) and drawn in order; the layout is fixed on every
platform, so identical configuration and seed give a byte-identical report.
"""

from __future__ import annotations

import numpy as np

PRNG_NAME = "philox4x64 (numpy), substreams keyed by (seed, chunk index)"
NUM_CHUNKS = 64


def substream(seed: int, index: int) -> np.random.Generator:
    """The Philox stream keyed by the exact 64-bit pair (seed, index)."""
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed {seed} is outside [0, 2^64)")
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def chunks(seed: int, samples: int) -> list:
    """(generator, size) for every non-empty chunk of ``samples``, in chunk order.

    The first ``samples % NUM_CHUNKS`` chunks take one sample more than
    the rest.  Chunk i draws from ``substream(seed, i)``; the seed is
    checked here, before any sampling work starts.
    """
    base, extra = divmod(samples, NUM_CHUNKS)
    sizes = (base + (i < extra) for i in range(NUM_CHUNKS))
    return [(substream(seed, i), size) for i, size in enumerate(sizes) if size]


def uniform_residues(rng: np.random.Generator, nrows: int, ncols: int,
                     modulus: int) -> np.ndarray:
    return rng.integers(0, modulus, size=(nrows, ncols), dtype=np.int64)


def uniform_box(rng: np.random.Generator, nrows: int, ncols: int,
                bound: int) -> np.ndarray:
    """Uniform integer matrix with entries in [-bound, bound]."""
    if bound > 2 ** 62 - 1:
        raise ValueError("box bound too large for the int64 sampler")
    return rng.integers(-bound, bound + 1, size=(nrows, ncols), dtype=np.int64)


def uniform_bigint(rng: np.random.Generator, bound: int) -> int:
    """One uniform integer in [-bound, bound], exact for arbitrary size."""
    width = 2 * bound + 1
    nbits = width.bit_length() + 32
    nwords = (nbits + 31) // 32
    limit = (1 << (32 * nwords)) // width * width
    while True:
        words = rng.integers(0, 1 << 32, size=nwords, dtype=np.uint64)
        x = 0
        for w in words:
            x = (x << 32) | int(w)
        if x < limit:
            return x % width - bound


def uniform_height_ball(rng: np.random.Generator, nrows: int, bounds) -> list:
    """Rows of independent coordinates, coordinate i uniform in [-bounds[i], bounds[i]].

    Falls back to the exact big-integer sampler past the int64 range.
    """
    cols = []
    for b in bounds:
        if b <= 2 ** 62 - 1:
            cols.append(rng.integers(-b, b + 1, size=nrows, dtype=np.int64).tolist())
        else:
            cols.append([uniform_bigint(rng, b) for _ in range(nrows)])
    return list(zip(*cols))


def confidence_halfwidth(mean: float, samples: int) -> float:
    """99 percent normal-approximation halfwidth for a Bernoulli mean."""
    if samples <= 0:
        raise ValueError("samples must be positive")
    return 2.5758 * (mean * (1.0 - mean) / samples) ** 0.5
