"""Rayleigh-fading link model shared by the analytic formulas and the simulator.

All public interfaces take SNR in dB and convert to linear scale internally.
Channel power gains |h|^2 are unit-mean exponential (Rayleigh envelope), drawn
from splittable per-link RNG streams so that simulation traces replay exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "ChannelParams",
    "db_to_linear",
    "outage_probability",
    "spawn_stream",
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
        snr_db: average signal-to-noise ratio in dB (finite).
        bandwidth_hz: channel bandwidth W in Hz (> 0).
        rate_bps: target data rate R in bits/second (> 0).
    """

    snr_db: float
    bandwidth_hz: float
    rate_bps: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.snr_db):
            raise ValueError(f"snr_db must be finite, got {self.snr_db!r}")
        if not self.bandwidth_hz > 0:
            raise ValueError(f"bandwidth_hz must be > 0, got {self.bandwidth_hz!r}")
        if not self.rate_bps > 0:
            raise ValueError(f"rate_bps must be > 0, got {self.rate_bps!r}")

    @property
    def snr_linear(self) -> float:
        return db_to_linear(self.snr_db)

    @property
    def spectral_efficiency(self) -> float:
        """Rate normalized by bandwidth, in bits/s/Hz."""
        return self.rate_bps / self.bandwidth_hz

    def with_rate(self, rate_bps: float) -> "ChannelParams":
        """Same link at a different target rate."""
        return replace(self, rate_bps=rate_bps)

    def with_snr(self, snr_db: float) -> "ChannelParams":
        return replace(self, snr_db=snr_db)


def outage_probability(params: ChannelParams) -> float:
    """Probability that the instantaneous capacity falls below the target rate.

    For a unit-mean exponential channel power gain this is
    1 - exp(-(2^(R/W) - 1) / snr), with snr in linear scale. The result lies
    in [0, 1), decreases with SNR and increases with R.
    """
    threshold = math.pow(2.0, params.spectral_efficiency) - 1.0
    # -expm1 keeps precision for the deep-outage (tiny probability) regime.
    return -math.expm1(-threshold / params.snr_linear)


def spawn_stream(seed: int, *path: int) -> np.random.Generator:
    """Independent, reproducible generator for one (run, link, ...) coordinate.

    Distinct paths under the same master seed give statistically independent
    streams, so parallel runs and per-link draws never share state.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(path)))


def sample_fades(rng: np.random.Generator, size) -> np.ndarray:
    """Bulk fade draws (unit-mean exponential) for vectorized estimators."""
    return rng.exponential(1.0, size=size)


def link_capacity_bps(params: ChannelParams, fade_power: float) -> float:
    """Instantaneous capacity W * log2(1 + snr * |h|^2) in bits/second."""
    return params.bandwidth_hz * math.log2(1.0 + params.snr_linear * fade_power)
