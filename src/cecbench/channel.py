"""Rayleigh-fading link model shared by the analytic formulas and the simulator.

All public interfaces take SNR in dB and convert to linear scale internally.
Channel power gains |h|^2 are unit-mean exponential (Rayleigh envelope), drawn
from splittable per-link RNG streams so that simulation traces replay exactly.
A stream depends only on its seed and path: `spawn_streams` and a `SeedPlan`
derive many streams' seeding words at once, and their holder picks which to use.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = [
    "ChannelParams",
    "db_to_linear",
    "outage_probability",
    "derive_seed",
    "spawn_stream",
    "spawn_streams",
    "SeedPlan",
    "sample_fades",
    "link_capacity_bps",
]


def db_to_linear(snr_db: float) -> float:
    """Convert an SNR in dB to linear scale."""
    return 10.0 ** (snr_db / 10.0)


@dataclass(frozen=True)
class ChannelParams:
    """Operating point of one faded link.

    Attributes:
        snr_db: average signal-to-noise ratio in dB, in (-inf, inf).
        bandwidth_hz: channel bandwidth W in Hz, in (0, inf).
        rate_bps: target data rate R in bits/second, in (0, inf]: a rate that
            overflows means certain outage.
    """

    snr_db: float
    bandwidth_hz: float
    rate_bps: float

    def __post_init__(self) -> None:
        # `_checks.real` on each field, written out: the figures build a channel per
        # `with_rate`, and three calls of the rule would each add a Python frame there.
        if not -math.inf < self.snr_db < math.inf:
            raise ValueError(f"snr_db must lie in (-inf, inf), got {self.snr_db!r}")
        if not 0 < self.bandwidth_hz < math.inf:
            raise ValueError(f"bandwidth_hz must lie in (0, inf), got {self.bandwidth_hz!r}")
        if not self.rate_bps > 0:
            raise ValueError(f"rate_bps must lie in (0, inf], got {self.rate_bps!r}")
        # Kept on the instance, where a read finds it with no call. On Python 3.11 a
        # cached_property computed at the first read cost `figures` 2.5-4%: it takes a lock
        # there, and a sweep reads the SNR of most of the channels it builds, once.
        try:
            object.__setattr__(self, "snr_linear", db_to_linear(self.snr_db))
        except OverflowError:
            pass

    @cached_property
    def snr_linear(self) -> float:
        """The SNR in linear scale. One that overflows a double is not kept at construction,
        so the channel still constructs, and this read raises OverflowError."""
        return db_to_linear(self.snr_db)

    @property
    def spectral_efficiency(self) -> float:
        """Rate normalized by bandwidth, in bits/s/Hz."""
        return self.rate_bps / self.bandwidth_hz

    def with_rate(self, rate_bps: float) -> "ChannelParams":
        """Same link at a different target rate."""
        return ChannelParams(self.snr_db, self.bandwidth_hz, rate_bps)

    def with_snr(self, snr_db: float) -> "ChannelParams":
        return ChannelParams(snr_db, self.bandwidth_hz, self.rate_bps)


def outage_probability(params: ChannelParams) -> float:
    """Probability that the instantaneous capacity falls below the target rate.

    For a unit-mean exponential channel power gain this is
    1 - exp(-(2^(R/W) - 1) / snr), with snr in linear scale. The result lies
    in [0, 1], decreases with SNR and increases with R. It is 1.0, the exact
    limit, when 2^(R/W) overflows a double or the linear SNR underflows to 0.
    """
    try:
        threshold = math.pow(2.0, params.spectral_efficiency) - 1.0
    except OverflowError:
        return 1.0
    snr = params.snr_linear
    if snr == 0.0:
        return 1.0
    # -expm1 keeps precision for the deep-outage (tiny probability) regime.
    return -math.expm1(-threshold / snr)


def derive_seed(seed: int, *path: int) -> int:
    """A 32-bit seed for the coordinate `path` under a master seed.

    It is the first word `SeedSequence(seed, spawn_key=path)` generates, so
    distinct paths (sweep points, a failure estimate's runs) get unrelated
    seeds from one master seed.
    """
    return int(np.random.SeedSequence(seed, spawn_key=path).generate_state(1)[0])


def spawn_stream(seed: int, *path: int) -> np.random.Generator:
    """Independent, reproducible generator for one (run, link, ...) coordinate.

    Distinct paths under the same master seed give statistically independent
    streams, so parallel runs and per-link draws never share state.
    `spawn_streams` derives a run's links under one path head in one pass,
    and `SeedPlan` many seeds at one path; the generator is the same either way.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(path)))


def spawn_streams(seed: int, head: int, count: int) -> list[np.random.Generator]:
    """The generators of paths (head, 0) ... (head, count - 1) under `seed`.

    Stream i is bit-identical to `spawn_stream(seed, head, i)`. For a plain
    int seed in [0, 2**64), the seeding words of all paths come from one
    `_seed_words` call (about 0.3-0.4 ms plus 3 µs per stream, against about
    20 µs per stream set up alone: the caller decides when that pays);
    otherwise each stream is `spawn_stream`'s.
    """
    if type(seed) is int and 0 <= seed < 1 << 64:
        rows = _seed_words([seed], (head, np.arange(count, dtype=np.uint32)))
        return [_Generator(_PCG64(_Words((row,)))) for row in rows]
    return [spawn_stream(seed, head, i) for i in range(count)]


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hash_steps(init: int, mult: int) -> Iterator[tuple[np.uint32, np.uint32]]:
    """(xor, multiplier) constants of successive SeedSequence hash steps."""
    while True:
        nxt = init * mult & _MASK32
        yield np.uint32(init), np.uint32(nxt)
        init = nxt


def _hash(value: np.ndarray, steps: Iterator[tuple[np.uint32, np.uint32]]) -> np.ndarray:
    xor, mult = next(steps)
    value = (value ^ xor) * mult
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return value ^ (value >> np.uint32(16))


def _uint32_words(n: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int, as SeedSequence splits it."""
    if n < 0:
        raise ValueError(f"expected a non-negative integer, got {n!r}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _seed_words(seeds, path: tuple) -> np.ndarray:
    """PCG64 seeding words of many seeds in [0, 2**64) at one spawn-key path.

    Row i equals `SeedSequence(seeds[i], spawn_key=path).generate_state(4,
    np.uint64)`. A path element may instead be a uint32 array that
    broadcasts against `seeds`; row i then takes its i-th entry as that path
    word, so one seed's paths (head, 0), (head, 1), ... take one call. The
    hash constants do not depend on the data, so numpy's pool mixing and
    `generate_state` run here as uint32 array operations over all rows at
    once. A one-word seed mixes like its two-word form with a zero high word
    (a short entropy pool is filled by hashing zeros), and a spawned sequence
    pads its seed words to the 4-word pool with zeros, so every row mixes the
    words [lo, hi, 0, 0, *path words].
    """
    return _path_words(_seed_pool(seeds), path)


# The hash constant the path words start from: the seed words take sixteen
# steps of the pool mixing (four hashed in, twelve mixed across).
_INIT_PATH = _INIT_A * pow(_MULT_A, 16, 1 << 32) & _MASK32


def _seed_pool(seeds) -> list[np.ndarray]:
    """The four pool words of each seed after the seed words are mixed in, before any path word.

    They depend on the seeds alone, so a plan derives them once for its
    seeds and `_path_words` finishes each path from them.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    zero = np.zeros(1, np.uint32)
    lo = (seeds & np.uint64(_MASK32)).astype(np.uint32)
    hi = (seeds >> np.uint64(32)).astype(np.uint32)
    steps = _hash_steps(_INIT_A, _MULT_A)
    pool = [_hash(w, steps) for w in (lo, hi, zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], steps))
    return pool


def _path_words(pool: list[np.ndarray], path: tuple) -> np.ndarray:
    """`_seed_words` at `path`, from the seeds' `_seed_pool`, which it leaves as it is."""
    extra: list[np.ndarray] = []
    for p in path:
        if isinstance(p, np.ndarray):
            extra.append(p.astype(np.uint32, copy=False))
        else:
            extra.extend(np.array([w], np.uint32) for w in _uint32_words(int(p)))
    steps = _hash_steps(_INIT_PATH, _MULT_A)
    pool = list(pool)
    for word in extra:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], _hash(word, steps))
    # generate_state(4, np.uint64): eight uint32 words cycled from the pool,
    # paired little-endian into four uint64 words.
    steps = _hash_steps(_INIT_B, _MULT_B)
    state = np.empty(pool[0].shape + (8,), np.uint32)
    for i in range(8):
        state[:, i] = _hash(pool[i % 4], steps)
    return state.view("<u8").astype(np.uint64)


class _Words(tuple, ISeedSequence):
    """Seed sequence that hands PCG64 one row of precomputed seeding words: `_Words((row,))`.

    It answers only PCG64's own request, `generate_state(4, np.uint64)`. As a
    tuple it is built in C, with no Python `__init__` frame per stream.
    """

    __slots__ = ()

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self[0]


class SeedPlan:
    """The stream seeding words of the seeds in a range, derived in bulk.

    `stream(seed, *path)` is `spawn_stream(seed, *path)` for any seed. For a
    plain int seed the plan covers, the PCG64 words come from a table of all
    its seeds at `path`, derived on the path's first request from the seeds'
    `_seed_pool`, which the plan derives once: about 2-3 µs per stream
    instead of about 25. A plan holds 32 bytes per seed and derived path, so
    its caller sizes it.
    """

    __slots__ = ("start", "stop", "pool", "rows")

    def __init__(self, seeds: range) -> None:
        self.start = max(seeds.start, 0)
        self.stop = min(seeds.stop, 1 << 64)
        self.pool = _seed_pool(np.arange(self.start, self.stop, dtype=np.uint64))
        # Row `seed - start` of rows[path] holds the words of `seed` at `path`.
        self.rows: dict[tuple[int, ...], np.ndarray] = {}

    def stream(self, seed: int, *path: int) -> np.random.Generator:
        if type(seed) is int and self.start <= seed < self.stop:
            rows = self.rows.get(path)
            if rows is None:
                rows = self.rows[path] = _path_words(self.pool, path)
            return _Generator(_PCG64(_Words((rows[seed - self.start],))))
        return spawn_stream(seed, *path)


# The two constructors every stream goes through, bound once.
_Generator = np.random.Generator
_PCG64 = np.random.PCG64


def sample_fades(rng: np.random.Generator, size) -> np.ndarray:
    """Bulk fade draws (unit-mean exponential) for vectorized estimators."""
    return rng.exponential(1.0, size=size)


def link_capacity_bps(params: ChannelParams, fade_power: float) -> float:
    """Instantaneous capacity W * log2(1 + snr * |h|^2) in bits/second."""
    return params.bandwidth_hz * math.log2(1.0 + params.snr_linear * fade_power)
