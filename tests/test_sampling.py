"""Seeded substreams: exact 64-bit keys, the fixed chunk layout and the
height-ball samplers."""

import json
import warnings

import numpy as np
import pytest

from bertinilab import sampling
from bertinilab.cli import EXIT_OK, main


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


@pytest.mark.parametrize("bound", [10, 2 ** 70])
def test_uniform_height_ball_rows(bound):
    """Bound 10 takes the int64 sampler, 2^70 the big-integer one: both give
    Python ints in [-bound, bound], and equal seeds give equal rows."""
    bounds = [bound, 3, bound]
    rows = sampling.uniform_height_ball(sampling.substream(5, 0), 200, bounds)
    assert len(rows) == 200
    for row in rows:
        assert len(row) == 3
        assert all(type(c) is int and -b <= c <= b for c, b in zip(row, bounds))
    assert rows == sampling.uniform_height_ball(sampling.substream(5, 0), 200, bounds)
    assert len({row[0] for row in rows}) > 1


def test_confidence_halfwidth():
    """The 99 percent halfwidth 2.5758 sqrt(m(1 - m)/n); n <= 0 is refused."""
    assert sampling.confidence_halfwidth(0.5, 100) == pytest.approx(2.5758 * 0.05)
    assert sampling.confidence_halfwidth(0.0, 10) == 0.0
    for samples in (0, -1):
        with pytest.raises(ValueError, match="samples must be positive"):
            sampling.confidence_halfwidth(0.5, samples)


def test_uniform_bigint():
    rng = sampling.substream(9, 0)
    assert [sampling.uniform_bigint(rng, 0) for _ in range(5)] == [0] * 5
    draws = [sampling.uniform_bigint(rng, 2 ** 70) for _ in range(100)]
    assert all(type(x) is int and abs(x) <= 2 ** 70 for x in draws)
    assert max(abs(x) for x in draws) > 2 ** 62         # past the int64 sampler
    again = sampling.substream(9, 0)
    assert [sampling.uniform_bigint(again, 0) for _ in range(5)] == [0] * 5
    assert [sampling.uniform_bigint(again, 2 ** 70) for _ in range(100)] == draws


def test_bsw_past_int64_is_reproducible(tmp_path, monkeypatch):
    """bsw at R^5 = 10^20 > 2^62 draws its top coefficients with
    uniform_bigint; two runs give the same results payload."""
    calls, draw = [], sampling.uniform_bigint

    def spy(rng, bound):
        calls.append(bound)
        return draw(rng, bound)
    monkeypatch.setattr(sampling, "uniform_bigint", spy)
    argv = ["bsw", "--d", "5", "--R", "10000", "--T", "1000", "--samples", "200",
            "--seed", "3"]
    payloads = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert main(argv + ["--output", str(out)]) == EXIT_OK
        payloads.append(json.loads(out.read_text())["results"])
    assert payloads[0] == payloads[1]
    assert payloads[0]["samples"] == 200 and payloads[0]["degenerate"] == 0
    assert calls == [10 ** 20] * 400
