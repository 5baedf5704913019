"""Closed-form and lattice-bracketed latency/reliability models for the uplink protocols.

Four schemes are covered: Selective Repeat ARQ, HARQ with mutual-information
accumulation, the two-phase Occupy CoW relaying scheme, and the two-phase
edge-driven ReFlexUp protocol. Rate terms are always normalized by the
bandwidth before entering the outage formula, and packet sizes are carried in
bits.
"""
from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from ._checks import integer, real
from .cec import CecConfig, optimal_tcm_case3
from .channel import ChannelParams, _outage_exponent, outage_probability

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
    matching the fixed-schedule failure model this feeds. q1 is phase 1's
    survival: 1 - p1 when built by hand, exp(-g1) from `occupycow_phase_probs`.
    """

    p1: float
    p2: float
    p12: float
    t1: float
    t2: float
    q1: float = field(init=False)

    def __post_init__(self) -> None:
        real("p1", self.p1, "[0, 1]")
        real("p2", self.p2, "[0, 1]")
        real("p12", self.p12, "[0, 1]")
        real("t1", self.t1, "(0, inf)")
        real("t2", self.t2, "(0, inf)")
        object.__setattr__(self, "q1", 1.0 - self.p1)


@dataclass(frozen=True)
class MonteCarloEstimate:
    """An estimate over `trials` trials with its 99% half-width `ci99`; unpacks as (value, ci99).

    A sampled proportion carries its `failures`; its stderr is the z = 1 Wilson
    half-width, its ci99 the one at _Z99. Otherwise stderr is a certain error
    bound and so is ci99: a lattice bracket's half-width, or 0 when `bound` is
    a number, the value being what a `trials`-trial sample returns unless an
    event of probability at most `bound` occurs.
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
        """99% half-width: the Wilson half-width at _Z99 for a proportion, stderr otherwise."""
        if self.failures is None:
            return self.stderr
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

# An estimate is certified, and nothing computed, when the probability that a
# `trials`-trial sample returns anything but the trivial value is at most this.
_CERTIFY_TOL = 1e-6
# Factor on the exact branch threshold, so that one fade above the slackened
# threshold also clears R/W in the float arithmetic of _round_information:
# with g = 2^(L*R/W) - 1, log2(1 + 2g) exceeds log2(1 + g) by a factor of at
# least 1024/1023 whenever 2g is finite, far above the few-ulp rounding.
_CERTIFY_SLACK = 2.0
# Floor on snr * threshold (64 machine epsilons), where 1 + snr * h itself
# rounds; it matters only for L*R/W below about 1e-14.
_CERTIFY_FLOOR = 2.0**-46
# Lattice steps over [0, L*R/W]: harq_pfail sums directly, O(steps^2) a round, so
# a tiny outage keeps its relative precision; d_hat needs only absolute error and
# convolves by FFT. _FFT_ERROR is d_hat's allowance per P_q for the FFT's rounding,
# at most 3.3e-15 against the direct sums at -30 to 30 dB, R/W 0.01-2 and L 1-4.
_PFAIL_STEPS, _ROUNDS_STEPS, _FFT_ERROR = 2048, 16383, 1e-12
_LN2 = math.log(2.0)


def _round_information(rng: np.random.Generator, snr: float, shape: tuple[int, ...]) -> np.ndarray:
    """Per-round information: log2(1 + snr*h) of the last axis's L fades, in place, summed, / L.

    That is ndarray.mean's arithmetic: the simulator's HARQ rounds, which the certification's slack covers.
    """
    fades = rng.exponential(1.0, size=shape)
    fades *= snr
    fades += 1.0
    np.log2(fades, out=fades)
    return fades.sum(axis=-1) / shape[-1]


def _harq_branch_threshold(chan: ChannelParams, diversity: int) -> float | None:
    """Slackened fade threshold above which one branch decodes its round alone.

    Every branch term (1/L) * log2(1 + snr*h) is non-negative, so a round stays
    at or below R/W only if every branch fade is at most
    t = (2^(L*R/W) - 1)/snr. Returns _CERTIFY_SLACK * t (at least
    _CERTIFY_FLOOR/snr), or None when 2^(L*R/W) overflows or snr is 0.
    """
    try:
        excess = math.expm1(diversity * chan.spectral_efficiency * _LN2)
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
    probability at most _CERTIFY_TOL; None when the estimate must be computed."""
    # Fewer trials give no meaningful CI.
    integer("trials", trials, _MIN_TRIALS)
    bound = _harq_trivial_bound(chan, params, trials, rounds)
    return MonteCarloEstimate(value, 0.0, trials, bound) if bound <= _CERTIFY_TOL else None


def _harq_bracket(
    chan: ChannelParams, params: HarqParams, rounds: int, steps: int, fft: bool = False
) -> np.ndarray:
    """Rows lo and hi, lo <= P_q <= hi, for P_q = P(X_1 + ... + X_qL <= L*R/W), X = log2(1 + snr*h), q = 1..rounds.

    D_n, the sum of n fades' bin indices on `steps` equal steps of [0, L*R/W],
    comes from X's exact bin masses by truncated convolution, a round at a time.
    Rounding each X down gives P_q <= P(D_qL <= steps); rounding it up gives
    P_q >= P(D_qL <= steps - qL), the top bin landing on L*R/W and still counting.
    Direct sums add only non-negative terms, so a tiny P_q keeps its relative
    precision; the FFT's length 2 * (steps + 1) leaves no wrap-around.
    """
    order, snr = params.diversity_order, chan.snr_linear
    top = order * chan.spectral_efficiency
    if snr == 0.0 or top == math.inf:  # every X is 0, or R/W is infinite: nothing decodes
        return np.ones((2, rounds))
    edges = np.linspace(0.0, top, steps + 1)
    lower, width = edges[:-1], np.diff(edges)
    # With F(x) = -expm1(-g(x)) and g(x) = expm1(x ln 2)/snr, a bin's mass F(b) - F(a) is
    # exp(-g(a)) * -expm1(-2^a expm1((b - a) ln 2)/snr), exact to a few ulps however small.
    with np.errstate(over="ignore"):
        mass = np.exp(-np.expm1(lower * _LN2) / snr) * -np.expm1(-np.exp2(lower) * np.expm1(width * _LN2) / snr)

    def convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        n = 2 * (steps + 1)
        return (np.fft.irfft(np.fft.rfft(a, n) * np.fft.rfft(b, n), n) if fft else np.convolve(a, b))[: steps + 1]

    per_round = functools.reduce(convolve, [mass] * order)
    bounds = np.zeros((2, rounds))
    for q, below in enumerate(map(np.cumsum, itertools.accumulate([per_round] * rounds, convolve)), 1):
        bounds[:, q - 1] = (below[steps - q * order] if q * order <= steps else 0.0), below[-1]
    return np.clip(bounds, 0.0, 1.0)


def harq_pfail(chan: ChannelParams, params: HarqParams, trials: int, seed: int = 0) -> MonteCarloEstimate:
    """Outage P_Q after Q mutual-information-accumulating rounds (see _harq_bracket): 0 with its
    bound when a `trials`-trial sample certifiably sees no failure, else the lattice bracket's
    midpoint with its half-width. `seed` changes no value."""
    if certified := _certified(chan, params, trials, params.max_rounds, 0.0):
        return certified
    lo, hi = _harq_bracket(chan, params, params.max_rounds, _PFAIL_STEPS)
    return MonteCarloEstimate(float(lo[-1] + hi[-1]) / 2, float(hi[-1] - lo[-1]) / 2, trials)


def _wilson_half_width(p: float, n: int, z: float) -> float:
    """Larger distance from a proportion p of n trials to an end of its Wilson score interval at z.

    Unlike the Wald error it stays positive when p is 0 or 1: 1/(n+1) at z = 1 and p = 0.
    """
    z2 = z**2
    center = (p + z2 / (2 * n)) / (1.0 + z2 / n)
    spread = math.sqrt(z2 * (p * (1.0 - p) / n + z2 / (4 * n * n))) / (1.0 + z2 / n)
    return max(p - (center - spread), (center + spread) - p)


def harq_expected_rounds(chan: ChannelParams, params: HarqParams, trials: int, seed: int = 0) -> MonteCarloEstimate:
    """Mean first decoding round, capped at Q: d_hat = 1 + sum of P_q over q < Q. 1 with its bound
    when a `trials`-trial sample certifiably decodes in round 1, else the FFT lattice bracket's
    midpoint with its half-width plus _FFT_ERROR a round. `seed` changes no value."""
    if certified := _certified(chan, params, trials, 1, 1.0):
        return certified
    lo, hi = _harq_bracket(chan, params, params.max_rounds - 1, _ROUNDS_STEPS, fft=True)
    half_width = float(hi.sum() - lo.sum()) / 2 + _FFT_ERROR * len(lo)
    return MonteCarloEstimate(1.0 + float(lo.sum() + hi.sum()) / 2, half_width, trials)


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
    other rate term here). q1 = exp(-g1) stays exact as p1 = 1 - exp(-g1) nears 1.
    """
    real("t1", t1, "(0, inf)")
    real("t2", t2, "(0, inf)")
    bits = shape.n_sensors * (shape.packet_bits + 1)
    g1 = _outage_exponent(chan.with_rate(bits / t1))
    p1 = -math.expm1(-g1)
    p2 = outage_probability(chan.with_rate(bits / t2))
    p12 = min(p1 / p2, 1.0) if p2 > 0 else 1.0
    params = OccupyCowParams(p1=p1, p2=p2, p12=p12, t1=t1, t2=t2)
    object.__setattr__(params, "q1", math.exp(-g1))
    return params


def occupycow_pfail(n: int, params: OccupyCowParams) -> float:
    """Fixed-schedule system failure of the two-phase relaying scheme.

    Sums, over a = 1..n-1 phase-1 survivors, the probability that at least one
    of the n-a stragglers also fails its phase-2 rescue:

        sum C(n,a) * (1-p1)^a * p1^(n-a) * (1 - (1-p12)^(n-a))

    The all-fail stratum (a = 0) carries no relays and contributes no failure
    mass under this form; the simulator and the enumeration oracle share that
    convention. Binomial masses are computed in the log domain from log q1 and
    log p1 (-inf at 0, which leaves a stratum no mass), exact as p1 nears 1.
    """
    integer("n", n, 2)
    a = np.arange(1, n)
    log_fact = np.array([math.lgamma(k + 1) for k in range(n + 1)])  # log k!
    log_q1 = math.log(params.q1) if params.q1 > 0.0 else -math.inf
    log_p1 = math.log(params.p1) if params.p1 > 0.0 else -math.inf
    mass = np.exp(log_fact[n] - log_fact[a] - log_fact[n - a] + a * log_q1 + (n - a) * log_p1)
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
