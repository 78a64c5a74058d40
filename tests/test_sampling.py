"""Seeded substreams: exact 64-bit keys and the fixed chunk layout."""

import warnings

import numpy as np
import pytest

from bertinilab import sampling


def key(seed, index=0):
    state = sampling.substream(seed, index).bit_generator.state
    return [int(k) for k in state["state"]["key"]]


def test_substream_keys_are_exact():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert key(2 ** 63) == [2 ** 63, 0]
        assert key(2 ** 63 + 1) == [2 ** 63 + 1, 0]
        assert key(2 ** 63 + 12345, 7) == [2 ** 63 + 12345, 7]
        assert key(2 ** 64 - 1) == [2 ** 64 - 1, 0]
    for seed in range(16):
        assert key(seed, 5) == [seed, 5]


@pytest.mark.parametrize("seed", [-1, -2, 2 ** 64])
def test_substream_rejects_seeds_outside_64_bits(seed):
    with pytest.raises(ValueError):
        sampling.substream(seed, 0)
    with pytest.raises(ValueError):
        sampling.chunks(seed, 100)


def test_chunks_layout():
    streams = sampling.chunks(42, 130)
    assert [size for _, size in streams] == [3, 3] + [2] * 62
    assert sum(size for _, size in sampling.chunks(42, 10)) == 10
    for index, (rng, size) in enumerate(sampling.chunks(42, 10)):
        expected = sampling.substream(42, index).integers(0, 1 << 30, size=4)
        assert np.array_equal(rng.integers(0, 1 << 30, size=4), expected)
