"""Closed-form and Monte-Carlo latency/reliability models for the uplink protocols.

Four schemes are covered: Selective Repeat ARQ, HARQ with mutual-information
accumulation, the two-phase Occupy CoW relaying scheme, and the two-phase
edge-driven ReFlexUp protocol. Rate terms are always normalized by the
bandwidth before entering the outage formula, and packet sizes are carried in
bits.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from ._checks import integer, real
from .cec import CecConfig, optimal_tcm_case3
from .channel import ChannelParams, outage_probability, spawn_stream

__all__ = [
    "Protocol",
    "NetworkShape",
    "HarqParams",
    "OccupyCowParams",
    "MonteCarloEstimate",
    "ReflexupLatency",
    "split_nodes",
    "srarq_latency",
    "srarq_pfail",
    "harq_pfail",
    "harq_expected_rounds",
    "harq_latency",
    "occupycow_phase_probs",
    "occupycow_pfail",
    "occupycow_void_probability",
    "occupycow_latency",
    "reflexup_pfail",
    "reflexup_latency",
]

_MIN_TRIALS = 10_000
_Z99 = 2.5758293035489004  # the standard normal 0.995 quantile


class Protocol(enum.Enum):
    SELECTIVE_REPEAT_ARQ = "selective_repeat_arq"
    HARQ = "harq"
    OCCUPY_COW = "occupy_cow"
    REFLEXUP = "reflexup"


@dataclass(frozen=True)
class NetworkShape:
    """Field-network head counts and packet sizing.

    relay_fanout is the average number of sensors served per relay and may be
    fractional (it enters the session-rate arithmetic, not a membership list).
    """

    n_total: int
    n_sensors: int
    n_relays: int
    relay_fanout: float
    packet_bits: int

    def __post_init__(self) -> None:
        integer("n_total", self.n_total)
        integer("n_sensors", self.n_sensors)
        integer("n_relays", self.n_relays)
        integer("packet_bits", self.packet_bits, 1)
        real("relay_fanout", self.relay_fanout, "[0, inf)")
        if self.n_total != self.n_sensors + self.n_relays:
            raise ValueError("n_total must equal n_sensors + n_relays")
        if self.n_relays > 0 and self.relay_fanout * self.n_relays < self.n_sensors - 1e-9:
            raise ValueError("relay_fanout * n_relays must cover all sensors")


def split_nodes(n_total: int, relay_sensor_ratio: float, packet_bits: int) -> NetworkShape:
    """Build a NetworkShape from a total head count and the n_s/n_v ratio.

    Sensors get round(n_total / (1 + ratio)) heads; the remainder are relays.
    """
    # At least one sensor and one relay.
    integer("n_total", n_total, 2)
    real("relay_sensor_ratio", relay_sensor_ratio, "(0, inf)")
    n_sensors = round(n_total / (1.0 + relay_sensor_ratio))
    n_sensors = min(max(n_sensors, 1), n_total - 1)
    n_relays = n_total - n_sensors
    return NetworkShape(
        n_total=n_total,
        n_sensors=n_sensors,
        n_relays=n_relays,
        relay_fanout=n_sensors / n_relays,
        packet_bits=packet_bits,
    )


@dataclass(frozen=True)
class HarqParams:
    """HARQ knobs: round budget Q and diversity order L."""

    max_rounds: int
    diversity_order: int

    def __post_init__(self) -> None:
        integer("max_rounds", self.max_rounds, 1)
        integer("diversity_order", self.diversity_order, 1)


@dataclass(frozen=True)
class OccupyCowParams:
    """Two-phase relaying failure parameters.

    p12 is the conditional phase-2 failure min(p1/p2, 1) (1 when p2 == 0),
    matching the fixed-schedule failure model this feeds.
    """

    p1: float
    p2: float
    p12: float
    t1: float
    t2: float

    def __post_init__(self) -> None:
        real("p1", self.p1, "[0, 1]")
        real("p2", self.p2, "[0, 1]")
        real("p12", self.p12, "[0, 1]")
        real("t1", self.t1, "(0, inf)")
        real("t2", self.t2, "(0, inf)")


@dataclass(frozen=True)
class MonteCarloEstimate:
    """A Monte-Carlo value over `trials` trials with its standard error.

    A proportion carries its `failures` count, and its stderr is the z = 1
    Wilson half-width; a mean carries its standard error. `bound` is None
    when the trials were drawn. A number means nothing was drawn: the value
    is the one sampling returns unless an event of probability at most
    `bound` occurs, and stderr is 0. Unpacks as (value, ci99).
    """

    value: float
    stderr: float
    trials: int
    bound: float | None = None
    failures: int | None = None

    @classmethod
    def proportion(cls, failures: int, trials: int) -> MonteCarloEstimate:
        """`failures` of `trials` trials, with the z = 1 Wilson half-width as stderr."""
        p = failures / trials
        return cls(p, _wilson_half_width(p, trials, 1.0), trials, failures=failures)

    @property
    def ci99(self) -> float:
        """99% half-width: the Wilson half-width at _Z99 for a proportion, _Z99 * stderr otherwise."""
        if self.failures is None:
            return _Z99 * self.stderr
        return _wilson_half_width(self.value, self.trials, _Z99)

    def __iter__(self) -> Iterator[float]:
        return iter((self.value, self.ci99))


class ReflexupLatency(NamedTuple):
    """Achieved two-phase latency plus the budget bookkeeping behind it."""

    t_cm: float
    infeasible: bool
    transfer_floor: float
    target: float


# --------------------------------------------------------------------------
# Selective Repeat ARQ
# --------------------------------------------------------------------------


def srarq_latency(shape: NetworkShape, chan: ChannelParams) -> float:
    """Average uplink time N_v * m * (3 - 2*P_l) / R with one retransmission round."""
    p_l = outage_probability(chan)
    return shape.n_sensors * shape.packet_bits * (3.0 - 2.0 * p_l) / chan.rate_bps


def srarq_pfail(p_timeout: float, p_error: float) -> float:
    """Per-attempt failure p_a + (1 - p_a) * p_b from timeouts and packet errors."""
    real("p_timeout", p_timeout, "[0, 1]")
    real("p_error", p_error, "[0, 1]")
    return p_timeout + (1.0 - p_timeout) * p_error


# --------------------------------------------------------------------------
# HARQ
# --------------------------------------------------------------------------

_CHUNK = 200_000
# An estimate is certified, and nothing drawn, when the probability that
# sampling returns anything but the trivial value is at most this.
_CERTIFY_TOL = 1e-6
# Factor on the exact branch threshold, so that one fade above the slackened
# threshold also clears R/W in the float arithmetic of _harq_round_totals:
# with g = 2^(L*R/W) - 1, log2(1 + 2g) exceeds log2(1 + g) by a factor of at
# least 1024/1023 whenever 2g is finite, far above the few-ulp rounding.
_CERTIFY_SLACK = 2.0
# Floor on snr * threshold (64 machine epsilons), where 1 + snr * h itself
# rounds; it matters only for L*R/W below about 1e-14.
_CERTIFY_FLOOR = 2.0**-46


def _round_information(rng: np.random.Generator, snr: float, shape: tuple[int, ...]) -> np.ndarray:
    """Per-round information: log2(1 + snr*h) of the last axis's L fades, in place, summed, / L.

    That is ndarray.mean's arithmetic. The simulator and the estimators share this
    kernel, because np.log2 and math.log2 differ in the last bit on a few inputs.
    """
    fades = rng.exponential(1.0, size=shape)
    fades *= snr
    fades += 1.0
    np.log2(fades, out=fades)
    return fades.sum(axis=-1) / shape[-1]


def _harq_round_totals(
    chan: ChannelParams, params: HarqParams, trials: int, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """Cumulative per-round information of `trials` trials, in (n, Q) chunks of n <= _CHUNK."""
    for done in range(0, trials, _CHUNK):
        shape = (min(_CHUNK, trials - done), params.max_rounds, params.diversity_order)
        yield np.cumsum(_round_information(rng, chan.snr_linear, shape), axis=1)


def _harq_branch_threshold(chan: ChannelParams, diversity: int) -> float | None:
    """Slackened fade threshold above which one branch decodes its round alone.

    Every branch term (1/L) * log2(1 + snr*h) is non-negative, so a round stays
    at or below R/W only if every branch fade is at most
    t = (2^(L*R/W) - 1)/snr. Returns _CERTIFY_SLACK * t (at least
    _CERTIFY_FLOOR/snr), or None when 2^(L*R/W) overflows or snr is 0.
    """
    try:
        excess = math.expm1(diversity * chan.spectral_efficiency * math.log(2.0))
    except OverflowError:
        return None
    slackened = _CERTIFY_SLACK * excess
    snr = chan.snr_linear
    if snr == 0.0 or not math.isfinite(slackened):
        return None
    return max(slackened, _CERTIFY_FLOOR) / snr


def _harq_trivial_bound(
    chan: ChannelParams, params: HarqParams, trials: int, rounds: int
) -> float:
    """Bound on P(some trial is undecoded after `rounds` rounds).

    Such a trial has all rounds * L of its fades at or below the branch
    threshold, each with probability p_b = 1 - exp(-threshold); the union over
    trials gives trials * p_b^(rounds * L). inf when no threshold exists.
    """
    threshold = _harq_branch_threshold(chan, params.diversity_order)
    if threshold is None:
        return math.inf
    p_branch = -math.expm1(-threshold)
    return trials * p_branch ** (rounds * params.diversity_order)


def _certified(
    chan: ChannelParams, params: HarqParams, trials: int, rounds: int, value: float
) -> MonteCarloEstimate | None:
    """`value` with its bound when every trial decodes within `rounds` rounds but with
    probability at most _CERTIFY_TOL; None when the trials must be drawn."""
    # Fewer trials give no meaningful CI.
    integer("trials", trials, _MIN_TRIALS)
    bound = _harq_trivial_bound(chan, params, trials, rounds)
    return MonteCarloEstimate(value, 0.0, trials, bound) if bound <= _CERTIFY_TOL else None


def harq_pfail(chan: ChannelParams, params: HarqParams, trials: int, seed: int = 0) -> MonteCarloEstimate:
    """Monte-Carlo outage after Q mutual-information-accumulating rounds.

    Estimates P(sum over Q rounds of the L-branch average log2(1 + snr*|h|^2)
    <= R/W), a proportion. When the bound on any trial failing is at most
    _CERTIFY_TOL, returns 0 with that bound and draws nothing.
    """
    certified = _certified(chan, params, trials, params.max_rounds, 0.0)
    return certified or _sample_harq_pfail(chan, params, trials, seed)


def _sample_harq_pfail(
    chan: ChannelParams, params: HarqParams, trials: int, seed: int
) -> MonteCarloEstimate:
    failures = 0
    for totals in _harq_round_totals(chan, params, trials, spawn_stream(seed, 0x4A, 0)):
        failures += int((totals[:, -1] <= chan.spectral_efficiency).sum())
    return MonteCarloEstimate.proportion(failures, trials)


def _wilson_half_width(p: float, n: int, z: float) -> float:
    """Larger distance from a proportion p of n trials to an end of its Wilson score interval at z.

    Unlike the Wald error it stays positive when p is 0 or 1: 1/(n+1) at z = 1 and p = 0.
    """
    z2 = z**2
    center = (p + z2 / (2 * n)) / (1.0 + z2 / n)
    spread = math.sqrt(z2 * (p * (1.0 - p) / n + z2 / (4 * n * n))) / (1.0 + z2 / n)
    return max(p - (center - spread), (center + spread) - p)


def harq_expected_rounds(chan: ChannelParams, params: HarqParams, trials: int, seed: int = 0) -> MonteCarloEstimate:
    """Monte-Carlo mean of the first decoding round, capped at Q.

    When the bound on any trial missing round 1 is at most _CERTIFY_TOL,
    returns 1 with that bound and draws nothing.
    """
    certified = _certified(chan, params, trials, 1, 1.0)
    return certified or _sample_harq_rounds(chan, params, trials, seed)


def _sample_harq_rounds(
    chan: ChannelParams, params: HarqParams, trials: int, seed: int
) -> MonteCarloEstimate:
    total = 0.0
    total_sq = 0.0
    for cum in _harq_round_totals(chan, params, trials, spawn_stream(seed, 0x4A, 1)):
        decoded = cum > chan.spectral_efficiency
        # First decoding round (1-based); undecoded packets stay at the cap Q.
        first = np.where(
            decoded.any(axis=1), decoded.argmax(axis=1) + 1, params.max_rounds
        ).astype(float)
        total += float(first.sum())
        total_sq += float((first**2).sum())
    mean = total / trials
    var = max(total_sq / trials - mean**2, 0.0)
    if var == 0.0:
        # Every trial decoded in the same round v of [1, Q]. The share in any
        # other round is 0 of n, whose z = 1 Wilson upper end is 1/(n+1), and
        # a trial there moves the mean by at most max(v - 1, Q - v).
        return MonteCarloEstimate(mean, max(mean - 1.0, params.max_rounds - mean) / (trials + 1), trials)
    return MonteCarloEstimate(mean, math.sqrt(var / trials), trials)


def harq_latency(shape: NetworkShape, chan: ChannelParams, d_hat: float) -> float:
    """Average uplink time d_hat * N_G * m / R."""
    real("d_hat", d_hat, "[1, inf)")
    return d_hat * shape.n_total * shape.packet_bits / chan.rate_bps


# --------------------------------------------------------------------------
# Occupy CoW
# --------------------------------------------------------------------------


def occupycow_phase_probs(
    shape: NetworkShape, chan: ChannelParams, t1: float, t2: float
) -> OccupyCowParams:
    """Per-phase link failures for the two-phase relaying scheme.

    Phase k moves n_v * (m + 1) bits in its window t_k, so its outage is the
    Rayleigh outage at rate n_v*(m+1)/t_k (bandwidth-normalized, like every
    other rate term here).
    """
    real("t1", t1, "(0, inf)")
    real("t2", t2, "(0, inf)")
    bits = shape.n_sensors * (shape.packet_bits + 1)
    p1 = outage_probability(chan.with_rate(bits / t1))
    p2 = outage_probability(chan.with_rate(bits / t2))
    p12 = min(p1 / p2, 1.0) if p2 > 0 else 1.0
    return OccupyCowParams(p1=p1, p2=p2, p12=p12, t1=t1, t2=t2)


def occupycow_pfail(n: int, params: OccupyCowParams) -> float:
    """Fixed-schedule system failure of the two-phase relaying scheme.

    Sums, over a = 1..n-1 phase-1 survivors, the probability that at least one
    of the n-a stragglers also fails its phase-2 rescue:

        sum C(n,a) * (1-p1)^a * p1^(n-a) * (1 - (1-p12)^(n-a))

    The all-fail stratum (a = 0) carries no relays and contributes no failure
    mass under this form; the simulator and the enumeration oracle share that
    convention. Binomial masses are computed in the log domain.
    """
    integer("n", n, 2)
    if params.p1 in (0.0, 1.0):
        # All nodes fail phase 1 (the void stratum a = 0) or all succeed
        # (a = n, no stragglers): no stratum in the sum carries mass.
        return 0.0
    a = np.arange(1, n)
    log_fact = np.array([math.lgamma(k + 1) for k in range(n + 1)])  # log k!
    mass = np.exp(
        log_fact[n] - log_fact[a] - log_fact[n - a]
        + a * math.log1p(-params.p1) + (n - a) * math.log(params.p1)
    )
    rescue_fail = 1.0 - (1.0 - params.p12) ** (n - a)
    total = float(np.dot(mass, rescue_fail))
    return min(max(total, 0.0), 1.0)


def occupycow_void_probability(n: int, params: OccupyCowParams) -> float:
    """Probability p1^n that no node survives phase 1: the void stratum `occupycow_pfail` leaves out."""
    integer("n", n, 2)
    return params.p1**n


def occupycow_latency(params: OccupyCowParams) -> float:
    """Total two-phase window t1 + t2."""
    return params.t1 + params.t2


# --------------------------------------------------------------------------
# ReFlexUp
# --------------------------------------------------------------------------


def reflexup_pfail(
    shape: NetworkShape,
    chan: ChannelParams,
    t_vs: float,
    p_timeout: float = 1e-4,
    rate_phase2: float | None = None,
) -> float:
    """End-to-end failure of the two-phase edge-driven uplink.

    Each relay session carries m * (fanout + 1) bits inside the phase-1
    budget t_vs, fixing the session rate; both phases run at that rate unless
    a phase-2 rate is given. Each phase fails like one Selective-Repeat
    attempt (timeout p_a or Rayleigh outage at the session rate) and the
    phases compose independently:

        P_fail = 1 - (1 - P_phase1) * (1 - P_phase2)
    """
    real("t_vs", t_vs, "(0, inf)")
    rate1 = shape.packet_bits * (shape.relay_fanout + 1.0) / t_vs
    rate2 = rate1 if rate_phase2 is None else real("rate_phase2", rate_phase2, "(0, inf]")
    p1 = srarq_pfail(p_timeout, outage_probability(chan.with_rate(rate1)))
    p2 = srarq_pfail(p_timeout, outage_probability(chan.with_rate(rate2)))
    return 1.0 - (1.0 - p1) * (1.0 - p2)


def reflexup_latency(
    shape: NetworkShape,
    chan: ChannelParams,
    cec: CecConfig,
    t_cp: float,
    rate_phase1: float | None = None,
    rate_phase2: float | None = None,
) -> ReflexupLatency:
    """Two-phase transmission time steered toward the padded-slot optimum.

    Phase 1 moves every sensor packet to its relay, phase 2 forwards the
    cached packets plus each relay's own toward the controller. Lost packets
    are re-sent bundled with their cached predecessor, so each loss costs two
    extra packet airtimes and the per-phase time is bits/R * (1 + 2*P_l).
    The reported t_cm is capped at the efficiency-optimal window
    sqrt(N*c0*t_cp); when even the loss-free transfer cannot fit inside that
    window the result is flagged infeasible (the offered rates alone cannot
    hit the target and the relays must adapt the rate upward).
    """
    rate1 = rate_phase1 if rate_phase1 is not None else chan.rate_bps
    rate2 = rate_phase2 if rate_phase2 is not None else chan.rate_bps
    real("rate_phase1", rate1, "(0, inf]")
    real("rate_phase2", rate2, "(0, inf]")
    bits1 = shape.n_sensors * shape.packet_bits
    bits2 = shape.n_relays * (shape.relay_fanout + 1.0) * shape.packet_bits
    floor = bits1 / rate1 + bits2 / rate2
    p1 = outage_probability(chan.with_rate(rate1))
    p2 = outage_probability(chan.with_rate(rate2))
    with_retx = bits1 * (1.0 + 2.0 * p1) / rate1 + bits2 * (1.0 + 2.0 * p2) / rate2
    target = optimal_tcm_case3(t_cp, cec)
    infeasible = floor > target
    return ReflexupLatency(
        t_cm=min(with_retx, target),
        infeasible=infeasible,
        transfer_floor=floor,
        target=target,
    )
