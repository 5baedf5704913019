import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from cecbench import protocols
from cecbench.cec import CecConfig
from cecbench.channel import ChannelParams, outage_probability
from cecbench.protocols import (
    HarqParams,
    MonteCarloEstimate,
    NetworkShape,
    OccupyCowParams,
    harq_expected_rounds,
    harq_latency,
    harq_pfail,
    occupycow_latency,
    occupycow_pfail,
    occupycow_phase_probs,
    occupycow_void_probability,
    reflexup_latency,
    reflexup_pfail,
    split_nodes,
    srarq_latency,
    srarq_pfail,
)
from cecbench.protocols import _CERTIFY_TOL, _harq_bracket, _harq_branch_threshold, _harq_trivial_bound

from scenarios import M_BITS, OC_NODES, OC_SHAPE, OC_T1, OC_T2, TABLE_CHAN


def _shape(n_sensors, n_relays, fanout=None, m=M_BITS):
    return NetworkShape(
        n_total=n_sensors + n_relays,
        n_sensors=n_sensors,
        n_relays=n_relays,
        relay_fanout=fanout if fanout is not None else n_sensors / max(n_relays, 1),
        packet_bits=m,
    )


# ------------------------------------------------------------------- shapes


def test_split_nodes_table_ratio():
    shape = split_nodes(250, 0.2, M_BITS)
    assert (shape.n_sensors, shape.n_relays) == (208, 42)
    assert shape.relay_fanout == pytest.approx(208 / 42)
    assert shape.n_total == 250


def test_split_nodes_rejects_tiny():
    with pytest.raises(ValueError):
        split_nodes(1, 0.2, M_BITS)


def test_shape_invariants():
    with pytest.raises(ValueError):
        NetworkShape(n_total=10, n_sensors=5, n_relays=4, relay_fanout=2.0, packet_bits=176)
    with pytest.raises(ValueError):
        NetworkShape(n_total=10, n_sensors=8, n_relays=2, relay_fanout=1.0, packet_bits=176)
    with pytest.raises(ValueError):
        NetworkShape(n_total=4, n_sensors=2, n_relays=2, relay_fanout=1.0, packet_bits=0)


@pytest.mark.parametrize(
    "build",
    [
        lambda: HarqParams(7.5, 2),
        lambda: HarqParams(7, 2.5),
        lambda: HarqParams(np.float64(7.0), 2),
        lambda: NetworkShape(10.5, 9.5, 1, 9.5, 176),
        lambda: NetworkShape(10, 9, 1, 9.0, 176.0),
        lambda: split_nodes(10.5, 0.2, 176),
    ],
)
def test_model_counts_must_be_integers(build):
    # A fractional count used to construct, then raise TypeError in the
    # sampler (HARQ's rounds) or yield a fractional relay count (split_nodes).
    with pytest.raises(ValueError, match="must be an integer"):
        build()


def test_model_counts_accept_numpy_integers():
    harq = HarqParams(np.int64(7), np.int32(2))
    chan = ChannelParams(-9.0, 20e6, 20e6)
    assert harq_pfail(chan, harq, 10_000) == harq_pfail(chan, HarqParams(7, 2), 10_000)
    shape = split_nodes(np.int64(250), 0.2, np.int64(M_BITS))
    assert (shape.n_sensors, shape.n_relays) == (208, 42)


# ----------------------------------------------------------- selective repeat


def test_srarq_latency_lossless_edge():
    shape = _shape(100, 20)
    chan = TABLE_CHAN.with_snr(600)  # outage ~ 0
    assert srarq_latency(shape, chan) == pytest.approx(100 * M_BITS * 3 / 200e3)


def test_srarq_latency_total_loss_edge():
    shape = _shape(100, 20)
    chan = TABLE_CHAN.with_snr(-200)  # outage ~ 1, factor collapses to 1
    assert srarq_latency(shape, chan) == pytest.approx(100 * M_BITS / 200e3, rel=1e-9)


def test_srarq_latency_table_point_regression():
    # 80 sensors of 100 nodes at the evaluation operating point; pinned after
    # the first computation.
    shape = _shape(80, 20)
    assert srarq_latency(shape, TABLE_CHAN) == pytest.approx(0.21119990206588926, rel=1e-12)


def test_srarq_latency_linear_in_nodes():
    t1 = srarq_latency(_shape(50, 10), TABLE_CHAN)
    t2 = srarq_latency(_shape(100, 20), TABLE_CHAN)
    assert t2 / t1 == pytest.approx(2.0, rel=1e-12)


def test_srarq_pfail_values():
    assert srarq_pfail(0.0, 0.0) == 0.0
    assert srarq_pfail(1e-4, 0.0) == pytest.approx(1e-4)
    assert srarq_pfail(1e-4, 0.5) == pytest.approx(0.50005)
    with pytest.raises(ValueError):
        srarq_pfail(-0.1, 0.5)


# --------------------------------------------------------------------- HARQ

STRESSED = ChannelParams(snr_db=3, bandwidth_hz=1e6, rate_bps=2e6)  # R/W = 2


def _undecoded_rounds(chan, params, trials, seed):
    """How many rounds each of `trials` packets stays undecoded (Q for an outage), drawn
    with the simulator's kernel, 100k packets at a time."""
    rng, counts = np.random.default_rng(seed), []
    for done in range(0, trials, 100_000):
        shape = (min(100_000, trials - done), params.max_rounds, params.diversity_order)
        info = np.cumsum(protocols._round_information(rng, chan.snr_linear, shape), axis=1)
        counts.append((info <= chan.spectral_efficiency).sum(axis=1))
    return np.concatenate(counts)


def _sampled_rounds(undecoded, max_rounds):
    """A sample's d_hat and its 99% half-width, as the sampled estimator gave them: the
    standard error, or, with no spread, max(v - 1, Q - v)/(n + 1)."""
    first = np.minimum(undecoded + 1, max_rounds).astype(float)
    mean, n = float(first.mean()), len(first)
    stderr = float(first.std()) / math.sqrt(n) or max(mean - 1.0, max_rounds - mean) / (n + 1)
    return mean, protocols._Z99 * stderr


def _meets(est, center, half_width):
    """Does [value - ci99, value + ci99] meet [center - half_width, center + half_width]?"""
    return abs(est.value - center) <= est.ci99 + half_width


def test_harq_pfail_vanishes_with_many_rounds():
    est = harq_pfail(TABLE_CHAN.with_snr(10), HarqParams(7, 2), 100_000)
    assert est.value <= 1e-4


def test_harq_pfail_saturates_at_low_snr():
    est = harq_pfail(STRESSED.with_snr(-100), HarqParams(3, 2), 20_000)
    assert est.value == pytest.approx(1.0)


def test_harq_pfail_error_is_positive_without_failures():
    # A 10k-trial sample sees no outage here and could report only 0 with the
    # Wilson error 1/(n + 1); the bracket reports the outage itself, with a positive error.
    est = harq_pfail(ChannelParams(20.0, 20e6, 200e3), HarqParams(1, 2), 10_000)
    assert (_undecoded_rounds(ChannelParams(20.0, 20e6, 200e3), HarqParams(1, 2), 10_000, 0) == 0).all()
    assert est.bound is None and 0 < est.ci99 < est.value < 1e-8


def test_harq_pfail_rejects_small_trials():
    with pytest.raises(ValueError):
        harq_pfail(STRESSED, HarqParams(2, 1), 100)
    with pytest.raises(ValueError):
        harq_expected_rounds(STRESSED, HarqParams(2, 1), 100)


@pytest.mark.parametrize("snr_db", [3.0, 40.0])
def test_harq_round_totals_match_reference_expression(snr_db):
    # The simulator's rounds: cumulative sums of the per-round L-branch mean.
    chan = STRESSED.with_snr(snr_db)
    fades = np.random.default_rng(11).exponential(1.0, size=(5000, 7, 2))
    expected = np.cumsum(np.log2(1.0 + chan.snr_linear * fades).mean(axis=2), axis=1)
    totals = np.cumsum(protocols._round_information(np.random.default_rng(11), chan.snr_linear, (5000, 7, 2)), axis=1)
    assert np.array_equal(totals, expected)


def test_harq_single_round_matches_outage_closed_form():
    # With Q = L = 1 the accumulated form collapses to the plain outage, and the
    # bracket is exact: every bin of [0, R/W] counts at either end. It holds the
    # closed form to within rounding.
    p_exact = outage_probability(STRESSED)
    (lo,), (hi,) = _harq_bracket(STRESSED, HarqParams(1, 1), 1, protocols._PFAIL_STEPS)
    assert lo * (1 - 1e-12) <= p_exact <= hi * (1 + 1e-12)
    assert harq_pfail(STRESSED, HarqParams(1, 1), 200_000).value == pytest.approx(p_exact, rel=1e-12)


def test_harq_two_rounds_matches_quadrature_oracle():
    # P((1+s*h1)(1+s*h2) <= 2^r) for independent unit exponentials, by
    # one-dimensional quadrature of the inner conditional probability.
    snr = STRESSED.snr_linear
    r = STRESSED.spectral_efficiency

    def inner(x):
        bound = (2**r / (1 + snr * x) - 1) / snr
        return math.exp(-x) * (1 - math.exp(-bound)) if bound > 0 else 0.0

    oracle, error = integrate.quad(inner, 0, (2**r - 1) / snr, limit=200, epsabs=1e-13)
    est = harq_pfail(STRESSED, HarqParams(2, 1), 400_000)
    assert error < 1e-10 < est.ci99 and abs(est.value - oracle) <= est.ci99 - error


def test_harq_expected_rounds_limits():
    fast = harq_expected_rounds(STRESSED.with_snr(100), HarqParams(7, 2), 20_000)
    assert fast.value == pytest.approx(1.0)
    stuck = harq_expected_rounds(STRESSED.with_snr(-100), HarqParams(7, 2), 20_000)
    assert stuck.value == pytest.approx(7.0)


def test_harq_expected_rounds_table_midpoint():
    # At the 30 dB evaluation point the first round essentially always decodes.
    est = harq_expected_rounds(TABLE_CHAN.with_snr(30), HarqParams(7, 2), 1_000_000)
    assert est.value == pytest.approx(1.0, rel=0.01)
    assert 1.0 <= est.value <= 7.0


def test_harq_expected_rounds_monotone_in_snr():
    params = HarqParams(7, 2)
    values = [
        harq_expected_rounds(STRESSED.with_snr(snr), params, 50_000).value
        for snr in (0, 6, 12)
    ]
    assert values[0] > values[1] > values[2]


# --------------------------------------------------- HARQ lattice bracket


@settings(max_examples=8, deadline=None, derandomize=True)
@given(
    snr_db=st.floats(-30.0, 30.0),
    r_norm=st.floats(0.01, 2.0),
    max_rounds=st.integers(1, 7),
    diversity=st.integers(1, 4),
)
def test_brackets_meet_a_million_trial_sample(snr_db, r_norm, max_rounds, diversity):
    chan, params = ChannelParams(snr_db, 1e6, r_norm * 1e6), HarqParams(max_rounds, diversity)
    undecoded = _undecoded_rounds(chan, params, 1_000_000, seed=17)
    outages = int((undecoded == max_rounds).sum())
    assert _meets(harq_pfail(chan, params, 1_000_000), *MonteCarloEstimate.proportion(outages, 1_000_000))
    assert _meets(harq_expected_rounds(chan, params, 1_000_000), *_sampled_rounds(undecoded, max_rounds))


@pytest.mark.parametrize("snr_db, r_norm, diversity", [(-20.0, 0.1, 2), (3.0, 2.0, 2), (0.0, 0.5, 4), (10.0, 2.0, 1)])
def test_outage_falls_in_rounds_and_snr(snr_db, r_norm, diversity):
    params = HarqParams(7, diversity)
    brackets = [
        _harq_bracket(ChannelParams(snr, 1e6, r_norm * 1e6), params, 7, 512) for snr in (snr_db, snr_db + 1, snr_db + 3)
    ]
    for lo, hi in brackets:
        assert (lo <= hi).all() and (np.diff(lo) <= 0).all() and (np.diff(hi) <= 0).all()
    for (lo, hi), (lo_up, hi_up) in itertools.pairwise(brackets):
        assert (lo_up <= lo).all() and (hi_up <= hi).all()


@pytest.mark.parametrize("fft", [False, True])
def test_bracket_narrows_as_the_lattice_doubles(fft):
    # A lattice of 2N steps refines one of N: its bracket nests inside, to within
    # the sums' rounding, and is narrower.
    chan, params = STRESSED.with_snr(-10), HarqParams(7, 2)
    brackets = [_harq_bracket(chan, params, 7, steps, fft) for steps in (256, 512, 1024, 2048)]
    for (lo, hi), (fine_lo, fine_hi) in itertools.pairwise(brackets):
        assert (fine_lo >= lo - 1e-12).all() and (fine_hi <= hi + 1e-12).all()
        assert (fine_hi - fine_lo).sum() < 0.6 * (hi - lo).sum()


@pytest.mark.parametrize(
    "chan, diversity",
    [(ChannelParams(-20, 1e6, 0.1e6), 2), (ChannelParams(3, 1e6, 2e6), 2), (ChannelParams(0, 1e6, 0.01e6), 2),
     (ChannelParams(-20, 1e6, 0.1e6), 4), (ChannelParams(-10, 1e6, 0.5e6), 4), (ChannelParams(0, 1e6, 2e6), 4)],
)
def test_rounds_bracket_is_no_wider_than_a_sample(chan, diversity):
    # d_hat's half-width is at most the 99% half-width of a 1e5-trial sample of the same point.
    params = HarqParams(7, diversity)
    est = harq_expected_rounds(chan, params, 100_000)
    assert est.bound is None and est.ci99 <= _sampled_rounds(_undecoded_rounds(chan, params, 100_000, 0), 7)[1]


# ------------------------------------------------- HARQ certification

DEFAULT_HARQ = HarqParams(7, 2)


class _FixedFades:
    """Stands in for a Generator: `exponential` returns prepared fades."""

    def __init__(self, fades):
        self.fades = fades

    def exponential(self, scale, size):
        assert scale == 1.0 and size == self.fades.shape
        return self.fades.copy()


def test_certified_rounds_equal_sampled_at_default_point():
    certified = harq_expected_rounds(TABLE_CHAN, DEFAULT_HARQ, 100_000, seed=0)
    assert certified.bound is not None and certified.bound <= _CERTIFY_TOL
    assert (certified.value, certified.stderr, certified.trials) == (1.0, 0.0, 100_000)
    for seed in range(20):
        assert (_undecoded_rounds(TABLE_CHAN, DEFAULT_HARQ, 100_000, seed) == 0).all()
        assert harq_expected_rounds(TABLE_CHAN, DEFAULT_HARQ, 100_000, seed) == certified


def test_certified_pfail_equals_sampled_at_default_point():
    certified = harq_pfail(TABLE_CHAN, DEFAULT_HARQ, 100_000)
    assert certified.bound is not None and certified.bound <= _CERTIFY_TOL
    assert (certified.value, certified.stderr, certified.trials) == (0.0, 0.0, 100_000)
    for seed in range(20):
        assert (_undecoded_rounds(TABLE_CHAN, DEFAULT_HARQ, 100_000, seed) < 7).all()


@pytest.mark.parametrize("snr_db", [30.0, 20.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sampled_rounds_without_spread_keep_an_error(snr_db, seed):
    # Every sampled trial decodes in round 1, but the point does not certify:
    # d_hat sits just above 1, and its half-width is positive yet below the
    # sample's (Q - 1)/(n + 1) rule.
    chan = ChannelParams(snr_db, 20e6, 200e3)
    undecoded = _undecoded_rounds(chan, DEFAULT_HARQ, 100_000, seed)
    est = harq_expected_rounds(chan, DEFAULT_HARQ, 100_000)
    assert (undecoded == 0).all() and est.bound is None
    assert tuple(est) == (est.value, est.ci99) and 0 < est.ci99 < _sampled_rounds(undecoded, 7)[1]
    assert 1.0 < est.value - est.ci99 and est.value + est.ci99 < 1.0 + 1e-6


def test_rounds_without_spread_at_the_cap():
    # Every packet stuck at Q: d_hat is Q, off by no more than the FFT's allowance.
    est = harq_expected_rounds(STRESSED.with_snr(-100), HarqParams(7, 2), 10_000)
    assert (est.value, est.ci99) == (7.0, 6 * protocols._FFT_ERROR)


def test_proportion_ci99_is_the_wilson_half_width_at_99():
    # A proportion's ci99 is not its z = 1 stderr scaled: Wilson is not linear in z.
    est = protocols.MonteCarloEstimate.proportion(37, 10_000)
    z2 = stats.norm.ppf(0.995) ** 2
    lo, hi = sorted(np.roots([1.0 + z2 / 10_000, -(2.0 * est.value + z2 / 10_000), est.value**2]).real)
    assert est.failures == 37 and est.ci99 == pytest.approx(max(est.value - lo, hi - est.value), rel=1e-9)
    p, ci99 = est
    assert (p, ci99) == (est.value, est.ci99)


def test_certified_estimates_have_no_99_percent_error():
    pfail = harq_pfail(TABLE_CHAN, DEFAULT_HARQ, 100_000)
    rounds = harq_expected_rounds(TABLE_CHAN, DEFAULT_HARQ, 100_000)
    for est in (pfail, rounds):
        assert est.bound is not None and est.failures is None and est.ci99 == 0.0


@pytest.mark.parametrize("diversity", [1, 2, 3, 7])
def test_fade_above_branch_threshold_decodes_round_one(diversity):
    # One branch just above the slackened threshold and the others at 0 must
    # clear R/W in the simulator's arithmetic, at every branch position.
    checked = 0
    for snr_db, r_norm in itertools.product(
        (-30.0, 0.0, 10.0, 40.0, 90.0), (1e-17, 1e-12, 1e-6, 0.01, 0.5, 2.0, 30.0, 300.0)
    ):
        chan = ChannelParams(snr_db=snr_db, bandwidth_hz=1e6, rate_bps=r_norm * 1e6)
        threshold = _harq_branch_threshold(chan, diversity)
        if threshold is None:
            assert diversity * r_norm > 1000  # 2^(L*R/W) overflows
            continue
        fades = np.zeros((diversity, 1, diversity))
        fades[np.arange(diversity), 0, np.arange(diversity)] = np.nextafter(threshold, np.inf)
        info = protocols._round_information(_FixedFades(fades), chan.snr_linear, fades.shape)
        assert (info[:, 0] > chan.spectral_efficiency).all(), (snr_db, r_norm)
        checked += 1
    assert checked >= 30


def test_round_one_failure_rate_within_branch_bound():
    # R/W = 2, L = 2 at 20 dB: about 1 trial in 400 misses round 1, against
    # p_b^L = 0.019 at the exact threshold.
    chan = ChannelParams(snr_db=20.0, bandwidth_hz=1e6, rate_bps=2e6)
    params = HarqParams(1, 2)
    fades = np.random.default_rng(21).exponential(1.0, size=(200_000, 1, 2))
    info = protocols._round_information(_FixedFades(fades), chan.snr_linear, fades.shape)
    undecoded = info[:, 0] <= chan.spectral_efficiency
    exact_threshold = (2.0 ** (2 * 2.0) - 1.0) / chan.snr_linear
    exact_branch = -math.expm1(-exact_threshold)
    assert 0 < undecoded.mean() <= exact_branch**2
    # Every undecoded trial has both fades at or below the exact threshold.
    assert (fades[undecoded] <= exact_threshold).all()
    assert _harq_trivial_bound(chan, params, 1, 1) >= exact_branch**2


@pytest.mark.parametrize("snr_db", [10.0, 20.0, 30.0])
def test_uncertifiable_points_still_sample(snr_db):
    # Where no certificate holds, d_hat is the FFT bracket's midpoint, and it meets
    # a 1e5-trial sample.
    chan = TABLE_CHAN.with_snr(snr_db)
    assert _harq_trivial_bound(chan, DEFAULT_HARQ, 100_000, 1) > _CERTIFY_TOL
    est = harq_expected_rounds(chan, DEFAULT_HARQ, 100_000)
    lo, hi = _harq_bracket(chan, DEFAULT_HARQ, 6, protocols._ROUNDS_STEPS, fft=True)
    assert est.bound is None and est.value == 1.0 + float(lo.sum() + hi.sum()) / 2
    assert _meets(est, *_sampled_rounds(_undecoded_rounds(chan, DEFAULT_HARQ, 100_000, 3), 7))


def test_lossy_pfail_still_samples():
    # Where outages occur, harq_pfail is the direct bracket's midpoint, and it
    # meets the Wilson interval of a 1e5-trial sample.
    chan = TABLE_CHAN.with_snr(-27.0)
    est = harq_pfail(chan, DEFAULT_HARQ, 20_000)
    (lo, hi) = (b[-1] for b in _harq_bracket(chan, DEFAULT_HARQ, 7, protocols._PFAIL_STEPS))
    assert est.bound is None and (est.value, est.ci99) == ((lo + hi) / 2, (hi - lo) / 2) and est.value > 0.0
    outages = int((_undecoded_rounds(chan, DEFAULT_HARQ, 100_000, 4) == 7).sum())
    assert _meets(est, *MonteCarloEstimate.proportion(outages, 100_000))


@pytest.mark.parametrize(
    "chan",
    [
        ChannelParams(snr_db=40.0, bandwidth_hz=1.0, rate_bps=600.0),  # 2^1200
        ChannelParams(snr_db=40.0, bandwidth_hz=1e-300, rate_bps=1e300),  # R/W = inf
        ChannelParams(snr_db=-4000.0, bandwidth_hz=1e6, rate_bps=1e4),  # snr = 0
    ],
)
def test_unbounded_point_neither_raises_nor_certifies(chan):
    assert _harq_branch_threshold(chan, 2) is None
    assert _harq_trivial_bound(chan, DEFAULT_HARQ, 10_000, 1) == math.inf
    rounds = harq_expected_rounds(chan, DEFAULT_HARQ, 10_000)
    assert rounds.bound is None and rounds.value == 7.0
    pfail = harq_pfail(chan, DEFAULT_HARQ, 10_000)
    assert pfail.bound is None and pfail.value == 1.0


def test_trial_check_precedes_certification():
    assert harq_expected_rounds(TABLE_CHAN, DEFAULT_HARQ, 10_000).bound is not None
    with pytest.raises(ValueError):
        harq_expected_rounds(TABLE_CHAN, DEFAULT_HARQ, 9_999)
    with pytest.raises(ValueError):
        harq_pfail(TABLE_CHAN, DEFAULT_HARQ, 9_999)


def test_harq_latency_values():
    shape = _shape(83, 17)
    assert harq_latency(shape, TABLE_CHAN, 1.0) == pytest.approx(100 * M_BITS / 200e3)
    assert harq_latency(shape, TABLE_CHAN, 7.0) == pytest.approx(7 * 100 * M_BITS / 200e3)
    double = _shape(166, 34)
    assert harq_latency(double, TABLE_CHAN, 1.3) == pytest.approx(
        2 * harq_latency(shape, TABLE_CHAN, 1.3), rel=1e-12
    )
    with pytest.raises(ValueError):
        harq_latency(shape, TABLE_CHAN, 0.5)


# --------------------------------------------------------------- Occupy CoW


def test_occupycow_symmetric_phases():
    shape = _shape(6, 1, fanout=6.0)
    params = occupycow_phase_probs(shape, TABLE_CHAN, t1=1e-5, t2=1e-5)
    assert params.p1 == params.p2
    assert params.p12 == 1.0


def test_occupycow_long_phase_is_reliable():
    shape = _shape(6, 1, fanout=6.0)
    params = occupycow_phase_probs(shape, TABLE_CHAN, t1=1e3, t2=1e-5)
    assert params.p1 < 1e-10


def test_occupycow_phase_rate_consistency():
    shape = _shape(10, 2)
    t1, t2 = 4e-6, 2e-6
    params = occupycow_phase_probs(shape, TABLE_CHAN, t1, t2)
    r1 = shape.n_sensors * (shape.packet_bits + 1) / t1
    assert params.p1 == pytest.approx(outage_probability(TABLE_CHAN.with_rate(r1)), rel=1e-12)
    assert params.p12 == pytest.approx(min(params.p1 / params.p2, 1.0))


def _oc_params(p1, p12):
    return OccupyCowParams(p1=p1, p2=0.5, p12=p12, t1=1.0, t2=1.0)


def _oc_enumeration_oracle(n, p1, p12):
    """Exhaustive two-phase enumeration with the no-relay stratum void."""
    total = 0.0
    for phase1 in itertools.product((True, False), repeat=n):
        a = sum(phase1)
        mass1 = (1 - p1) ** a * p1 ** (n - a)
        if a == 0 or a == n:
            continue
        stragglers = n - a
        for rescue in itertools.product((True, False), repeat=stragglers):
            ok = sum(rescue)
            mass2 = (1 - p12) ** ok * p12 ** (stragglers - ok)
            if ok < stragglers:
                total += mass1 * mass2
    return total


def test_occupycow_phase_probs_keeps_phase_one_survival():
    # q1 = exp(-g1) stays exact where p1 = 1 - exp(-g1) rounds toward 1. At 10 dB on
    # criterion 4's shape p1 is 1.0, yet a round with one phase-1 survivor still fails
    # (p12 = 1), with probability about n * q1. Built by hand, the survival is 1 - p1.
    for snr in (10.0, 20.0, 40.0):
        chan = TABLE_CHAN.with_snr(snr)
        params = occupycow_phase_probs(OC_SHAPE, chan, OC_T1, OC_T2)
        g1 = (2.0 ** (OC_NODES * (M_BITS + 1) / OC_T1 / chan.bandwidth_hz) - 1.0) / chan.snr_linear
        assert params.q1 == pytest.approx(math.exp(-g1), rel=1e-12)
    at_10 = occupycow_phase_probs(OC_SHAPE, TABLE_CHAN.with_snr(10.0), OC_T1, OC_T2)
    assert at_10.p1 == 1.0 and 0.0 < at_10.q1 < 1e-60
    assert occupycow_pfail(OC_NODES, at_10) == pytest.approx(OC_NODES * at_10.q1, rel=1e-9)
    assert _oc_params(0.25, 0.5).q1 == 0.75


def test_occupycow_pfail_zero_edges():
    assert occupycow_pfail(5, _oc_params(0.0, 0.5)) == 0.0
    assert occupycow_pfail(5, _oc_params(0.3, 0.0)) == 0.0


def test_occupycow_pfail_three_nodes_hand_case():
    # p1 = p2 = 0.5 forces p12 = 1: the middle strata always fail.
    got = occupycow_pfail(3, _oc_params(0.5, 1.0))
    assert got == pytest.approx(0.75, rel=1e-12)
    assert got == pytest.approx(_oc_enumeration_oracle(3, 0.5, 1.0), rel=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_occupycow_pfail_matches_enumeration(n):
    rng = np.random.default_rng(n)
    for _ in range(6):
        p1 = float(rng.uniform(0.05, 0.95))
        p12 = float(rng.uniform(0.0, 1.0))
        closed = occupycow_pfail(n, _oc_params(p1, p12))
        oracle = _oc_enumeration_oracle(n, p1, p12)
        assert closed == pytest.approx(oracle, rel=1e-11, abs=1e-14)


def test_occupycow_void_probability_at_criterion4_shape():
    # Criterion 4's Occupy CoW shape (six nodes, t1 = 5 us, t2 = 2.5 us): the
    # void stratum holds almost all the mass at 10-25 dB, which is why the
    # analytic failure there is near zero.
    void = {}
    for snr in (10.0, 20.0, 25.0):
        params = occupycow_phase_probs(OC_SHAPE, TABLE_CHAN.with_snr(snr), OC_T1, OC_T2)
        void[snr] = occupycow_void_probability(OC_NODES, params)
        assert void[snr] == params.p1**OC_NODES
    assert void[10.0] == 1.0
    assert round(void[20.0], 6) == 0.999999
    assert round(void[25.0], 3) == 0.959
    with pytest.raises(ValueError):
        occupycow_void_probability(1, _oc_params(0.5, 0.5))


def test_occupycow_void_stratum_completes_the_enumeration():
    # Void rounds, failed rounds and the rest (all survive, or every straggler rescued) partition the rounds.
    for n, p1, p12 in ((2, 0.3, 0.6), (4, 0.7, 0.2), (6, 0.5, 0.9)):
        params = _oc_params(p1, p12)
        survive_all = (1 - p1) ** n
        rescued = sum(
            math.comb(n, a) * (1 - p1) ** a * p1 ** (n - a) * (1 - p12) ** (n - a) for a in range(1, n)
        )
        total = occupycow_void_probability(n, params) + occupycow_pfail(n, params) + survive_all + rescued
        assert total == pytest.approx(1.0, rel=1e-12)


def _oc_scipy_reference(n, p1, p12):
    a = np.arange(1, n)
    return float(np.dot(stats.binom.pmf(a, n, 1.0 - p1), 1.0 - (1.0 - p12) ** (n - a)))


def test_occupycow_pfail_log_domain_pmf():
    for n in (10, 100, 400):
        for p1 in (0.01, 0.3, 0.5, 0.9):
            for p12 in (0.0, 0.2, 1.0):
                assert occupycow_pfail(n, _oc_params(p1, p12)) == pytest.approx(
                    _oc_scipy_reference(n, p1, p12), rel=1e-11
                )
    # Rare phase-1 loss: the log-domain masses keep full precision.
    for n in (2, 4, 6):
        got = occupycow_pfail(n, _oc_params(1e-9, 0.5))
        assert got == pytest.approx(_oc_enumeration_oracle(n, 1e-9, 0.5), rel=1e-11)
    for p1 in (0.0, 1.0):
        assert occupycow_pfail(50, _oc_params(p1, 0.5)) == 0.0


def test_occupycow_pfail_large_n_stays_bounded():
    params = _oc_params(0.4, 0.6)
    p = occupycow_pfail(400, params)
    assert 0.0 <= p <= 1.0
    with pytest.raises(ValueError):
        occupycow_pfail(1, params)


def test_occupycow_params_validation():
    with pytest.raises(ValueError):
        OccupyCowParams(p1=1.2, p2=0.5, p12=0.5, t1=1.0, t2=1.0)
    with pytest.raises(ValueError):
        OccupyCowParams(p1=0.2, p2=0.5, p12=0.5, t1=0.0, t2=1.0)


def test_occupycow_latency_is_window_sum():
    params = _oc_params(0.2, 0.4)
    assert occupycow_latency(params) == 2.0


# ----------------------------------------------------------------- ReFlexUp


def test_reflexup_pfail_perfect_phases():
    shape = split_nodes(250, 0.2, M_BITS)
    p = reflexup_pfail(shape, TABLE_CHAN.with_snr(600), t_vs=1.0, p_timeout=0.0)
    assert p == pytest.approx(0.0, abs=1e-15)


def test_reflexup_pfail_perfect_second_phase():
    shape = split_nodes(250, 0.2, M_BITS)
    rate1 = shape.packet_bits * (shape.relay_fanout + 1) / 1e-5
    phase1_only = reflexup_pfail(
        shape, TABLE_CHAN, t_vs=1e-5, p_timeout=0.0, rate_phase2=1e-3
    )
    expected = outage_probability(TABLE_CHAN.with_rate(rate1))
    assert phase1_only == pytest.approx(expected, rel=1e-9)


def test_reflexup_pfail_reported_anchor():
    # Reported operating point: 250 nodes, 40 dB -> 0.00708 within a factor
    # of two; 60 dB -> 0.00017 within a factor of two.
    shape = split_nodes(250, 0.2, M_BITS)
    p40 = reflexup_pfail(shape, TABLE_CHAN, t_vs=1e-5)
    p60 = reflexup_pfail(shape, TABLE_CHAN.with_snr(60), t_vs=1e-5)
    assert 0.00708 / 2 <= p40 <= 0.00708 * 2
    assert 0.00017 / 2 <= p60 <= 0.00017 * 2


def test_reflexup_pfail_monotone_in_snr():
    shape = split_nodes(250, 0.2, M_BITS)
    values = [
        reflexup_pfail(shape, TABLE_CHAN.with_snr(snr), t_vs=1e-5)
        for snr in range(10, 61, 5)
    ]
    assert all(b < a for a, b in zip(values, values[1:]))


CEC = CecConfig(n_tasks=100, k_rbs=200, c=1.5, c0=1.5)


def test_reflexup_latency_pure_transfer_with_slack_target():
    shape = split_nodes(120, 0.2, M_BITS)
    chan = TABLE_CHAN.with_snr(600)  # loss-free phases
    r1, r2 = 4e5, 8e5
    res = reflexup_latency(shape, chan, CEC, t_cp=0.5, rate_phase1=r1, rate_phase2=r2)
    pure = (
        shape.n_sensors * M_BITS / r1
        + shape.n_relays * (shape.relay_fanout + 1) * M_BITS / r2
    )
    assert not res.infeasible
    assert res.t_cm == pytest.approx(pure, rel=1e-12)


def test_reflexup_latency_flags_unreachable_target():
    shape = split_nodes(300, 0.2, M_BITS)
    res = reflexup_latency(shape, TABLE_CHAN, CEC, t_cp=1e-6)
    assert res.infeasible
    assert res.transfer_floor > res.target


def test_reflexup_latency_capped_at_target():
    shape = split_nodes(300, 0.2, M_BITS)
    res = reflexup_latency(shape, TABLE_CHAN, CEC, t_cp=3.23841e-4)
    assert res.t_cm == pytest.approx(res.target)
    assert res.t_cm <= harq_latency(_shape(251, 0), TABLE_CHAN, 1.0)


def test_reflexup_latency_rejects_bad_rates():
    shape = split_nodes(120, 0.2, M_BITS)
    with pytest.raises(ValueError):
        reflexup_latency(shape, TABLE_CHAN, CEC, t_cp=0.5, rate_phase1=0.0)


@pytest.mark.parametrize(
    "closed_form",
    [
        outage_probability,
        lambda chan: reflexup_pfail(NetworkShape(2, 1, 1, 1.0, M_BITS), chan, 1e-5),
        lambda chan: harq_pfail(chan, HarqParams(7, 2), 10_000),
    ],
    ids=["outage_probability", "reflexup_pfail", "harq_pfail"],
)
def test_closed_forms_name_an_snr_whose_linear_value_overflows(closed_form):
    # 4000 dB is 1e400 in linear scale: each closed form raises the channel's ValueError
    # naming snr_db, not a bare OverflowError.
    with pytest.raises(ValueError, match="snr_db"):
        closed_form(ChannelParams(4000.0, 20e6, 200e3))
