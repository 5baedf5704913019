"""Rayleigh-fading link model shared by the analytic formulas and the simulator.

All public interfaces take SNR in dB and convert to linear scale internally.
Channel power gains |h|^2 are unit-mean exponential (Rayleigh envelope), drawn
from splittable per-link RNG streams so that simulation traces replay exactly.
A stream depends only on its seed and path: `spawn_stream` sets one up alone,
and a `SeedPlan` derives the seeding words of many seeds and paths at once.
"""
from __future__ import annotations

import math
import struct
import sys
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = [
    "ChannelParams",
    "db_to_linear",
    "outage_probability",
    "derive_seed",
    "spawn_stream",
    "SeedPlan",
    "sample_fades",
    "link_capacity_bps",
    "fade_threshold",
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
        so the channel still constructs, and this read raises a ValueError naming snr_db."""
        try:
            return db_to_linear(self.snr_db)
        except OverflowError:
            raise ValueError(f"snr_db must give a finite linear SNR, got {self.snr_db!r}") from None

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

    For a unit-mean exponential channel power gain this is 1 - exp(-g), with
    g = (2^(R/W) - 1) / snr (`_outage_exponent`) and snr in linear scale. The
    result lies in [0, 1], decreases with SNR and increases with R. It is 1.0, the
    exact limit, when 2^(R/W) overflows a double or the linear SNR underflows to 0.
    """
    # -expm1 keeps precision for the deep-outage (tiny probability) regime.
    return -math.expm1(-_outage_exponent(params))


def _outage_exponent(params: ChannelParams) -> float:
    """g = (2^(R/W) - 1) / snr: the link survives with probability exp(-g). inf when 2^(R/W) overflows or snr is 0."""
    try:
        threshold = math.pow(2.0, params.spectral_efficiency) - 1.0
    except OverflowError:
        return math.inf
    snr = params.snr_linear
    return threshold / snr if snr else math.inf


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
    `SeedPlan` derives many seeds and paths in bulk; the generator is the same.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(path)))


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _steps(init: int, mult: int, first: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(xor, multiplier) uint32 arrays of hash steps first ... first + n - 1: step k xors
    with init * mult**k and multiplies by init * mult**(k + 1), mod 2**32."""
    consts = np.array([init * pow(mult, k, 1 << 32) & _MASK32 for k in range(first, first + n + 1)], np.uint32)
    return consts[:-1], consts[1:]


def _hash(value, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """numpy's `hashmix` of `value` at the steps of `xor` and `mult`, broadcast against them."""
    value = value ^ xor
    value *= mult
    value ^= value >> 16
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """numpy's `mix` of the hashes y into the pool words x; y is overwritten."""
    y *= _MIX_MULT_R
    value = x * _MIX_MULT_L - y
    value ^= value >> 16
    return value


# The hash groups of SeedSequence's pool mixing, each a set of independent hashes done as one
# set of array operations over the pool axis: the four seed words hashed in; then for each
# source word, its three hashes mixed into the other pool words (`_CROSS`: source, the other
# words, their steps); the four hashes of each path word (`_path_steps`); and the eight hashes
# of `generate_state`, which cycles over the pool twice. `_seed_pool` mixes with the pool axis
# first, where each pool word of all seeds is one contiguous row, so its steps are columns.
_SEED_STEPS = tuple(c[:, None] for c in _steps(_INIT_A, _MULT_A, 0, 4))
_CROSS = tuple(
    (src, [d for d in range(4) if d != src], *(c[:, None] for c in _steps(_INIT_A, _MULT_A, 4 + 3 * src, 3)))
    for src in range(4)
)
_STATE_STEPS = _steps(_INIT_B, _MULT_B, 0, 8)


@cache
def _path_steps(n_words: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The steps of each word of an n_words-word path: four each, after the seed words' sixteen."""
    xor, mult = _steps(_INIT_A, _MULT_A, 16, 4 * n_words)
    return tuple(zip(xor.reshape(-1, 4), mult.reshape(-1, 4)))


def _uint32_words(n: int) -> list[int]:
    """Little-endian 32-bit words of a non-negative int, as SeedSequence splits it."""
    if n < 0:
        raise ValueError(f"expected a non-negative integer, got {n!r}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _seed_pool(seeds) -> np.ndarray:
    """The pool of each of a sequence of seeds in [0, 2**64) after its seed words are mixed in,
    before any path word: a (len(seeds), 4) uint32 array.

    It depends on the seeds alone, so a plan derives it once for its seeds
    and `_path_words` finishes each path from it. A one-word seed mixes like
    its two-word form with a zero high word (a short entropy pool is filled by
    hashing zeros), and a spawned sequence pads its seed words to the 4-word
    pool with zeros, so every seed mixes the words [lo, hi, 0, 0].
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    words = np.zeros((4, len(seeds)), np.uint32)
    words[0] = seeds  # the cast keeps the low 32 bits
    words[1] = seeds >> 32
    pool = _hash(words, *_SEED_STEPS)
    for src, others, xor, mult in _CROSS:
        pool[others] = _mix(pool[others], _hash(pool[src], xor, mult))
    return pool.T.copy()


def _path_words(pool: np.ndarray, path: tuple) -> np.ndarray:
    """PCG64 seeding words at the spawn-key `path` of the seeds whose `_seed_pool` is `pool`,
    which it leaves as it is. Row i equals `SeedSequence(seeds[i],
    spawn_key=path).generate_state(4, np.uint64)`.

    A path element may instead be a uint32 array, which broadcasts against
    the seeds' shape: with a (count,) array over one seed's pool, row i is
    path word i, and with a (count, 1) array over n seeds the result is a
    (count, n, 4) table of count paths. The hash constants do not depend on
    the data, so the mixing runs as uint32 array operations over all rows.
    """
    words: list = []
    for p in path:
        if isinstance(p, np.ndarray):
            words.append(p.astype(np.uint32, copy=False)[..., None])
        else:
            words.extend(_uint32_words(int(p)))
    for word, (xor, mult) in zip(words, _path_steps(len(words))):
        pool = _mix(pool, _hash(word, xor, mult))
    # generate_state(4, np.uint64): eight uint32 words, paired little-endian into four uint64 words.
    state = _hash(np.concatenate((pool, pool), axis=-1), *_STATE_STEPS)
    return state.view("<u8").astype(np.uint64, copy=False)


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

    `stream(seed, *path)` is `spawn_stream(seed, *path)` for any seed, and
    `streams(seed, head, count)` is the list of `stream(seed, head, i)` for i
    in range(count). For a plain int seed the plan covers, the PCG64 words
    come from a table of all its seeds at each path, derived from the seeds'
    `_seed_pool`, which the plan derives once: a path on its first `stream`
    request, and a head's `count` paths together, in one `_path_words` pass,
    on the first `streams` request for that head and count. A stream then
    takes about 2-3 µs to set up instead of about 25. A plan holds 32 bytes
    per seed and derived path, so its caller sizes it.
    """

    __slots__ = ("start", "stop", "pool", "rows", "tables")

    def __init__(self, seeds: range) -> None:
        self.stop = min(seeds.stop, 1 << 64)
        # In [0, stop]: a range at or above 2**64 covers nothing and falls back.
        self.start = min(max(seeds.start, 0), self.stop)
        self.pool = _seed_pool(np.arange(self.start, self.stop, dtype=np.uint64))
        # Row `seed - start` of rows[path] holds the words of `seed` at `path`, and of
        # tables[head, count][i] its words at (head, i): one row array per path, which a
        # stream indexes once.
        self.rows: dict[tuple[int, ...], np.ndarray] = {}
        self.tables: dict[tuple[int, int], list[np.ndarray]] = {}

    def stream(self, seed: int, *path: int) -> np.random.Generator:
        if type(seed) is int and self.start <= seed < self.stop:
            rows = self.rows.get(path)
            if rows is None:
                rows = self.rows[path] = _path_words(self.pool, path)
            return _Generator(_PCG64(_Words((rows[seed - self.start],))))
        return spawn_stream(seed, *path)

    def streams(self, seed: int, head: int, count: int) -> list[np.random.Generator]:
        if not (type(seed) is int and self.start <= seed < self.stop):
            return [spawn_stream(seed, head, i) for i in range(count)]
        table = self.tables.get((head, count))
        if table is None:
            links = np.arange(count, dtype=np.uint32)[:, None]
            table = self.tables[head, count] = list(_path_words(self.pool, (head, links)))
        # A loop, not a comprehension, which would add a frame to every run.
        i, streams = seed - self.start, []
        for rows in table:
            streams.append(_Generator(_PCG64(_Words((rows[i],)))))
        return streams


# The two constructors every stream goes through, bound once.
_Generator = np.random.Generator
_PCG64 = np.random.PCG64


def sample_fades(rng: np.random.Generator, size) -> np.ndarray:
    """Bulk fade draws (unit-mean exponential) for vectorized estimators."""
    return rng.exponential(1.0, size=size)


def link_capacity_bps(params: ChannelParams, fade_power: float) -> float:
    """Instantaneous capacity W * log2(1 + snr * |h|^2) in bits/second."""
    return params.bandwidth_hz * math.log2(1.0 + params.snr_linear * fade_power)


def fade_threshold(params: ChannelParams, rate_bps: float) -> float:
    """The least fade power h >= 0 with `link_capacity_bps(params, h) >= rate_bps`, or inf when
    no finite fade reaches the rate: a fade carries the rate exactly when it is at least this.

    Capacity does not fall as the fade grows, and the non-negative doubles order as their bit
    patterns do, so the threshold is found by bisection over those patterns. It is kept per
    (W, snr, rate) for the most recent 1024 of them, so a caller that asks once per run pays
    the bisection once per channel. A linear SNR of 0 reaches no rate. Above a linear SNR
    of 1, snr * h overflows at a finite fade, whose capacity is inf, so a rate that no
    representable 2^(R/W) reaches still has a finite threshold there.
    """
    return _fade_threshold(params.with_rate(rate_bps))


# The bit pattern of the largest finite double; 0 is the pattern of 0.0.
_MAX_BITS = struct.unpack("<q", struct.pack("<d", sys.float_info.max))[0]


def _double(bits: int) -> float:
    """The double whose bit pattern is `bits`."""
    return struct.unpack("<d", struct.pack("<q", bits))[0]


@lru_cache(maxsize=1024)
def _fade_threshold(link: ChannelParams) -> float:
    """`fade_threshold` of a link at its own rate."""
    rate = link.rate_bps
    if not link_capacity_bps(link, sys.float_info.max) >= rate:
        return math.inf
    # h = 0 carries no rate > 0, and the largest double carries this one.
    low, high = 0, _MAX_BITS
    while high - low > 1:
        mid = (low + high) // 2
        if link_capacity_bps(link, _double(mid)) >= rate:
            high = mid
        else:
            low = mid
    return _double(high)
