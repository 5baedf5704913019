import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cecbench.channel import (
    ChannelParams,
    SeedPlan,
    _path_words,
    _seed_pool,
    _Words,
    db_to_linear,
    derive_seed,
    fade_threshold,
    link_capacity_bps,
    outage_probability,
    sample_fades,
    spawn_stream,
)

TABLE = dict(bandwidth_hz=20e6, rate_bps=200e3)


def test_db_conversion():
    assert db_to_linear(10) == pytest.approx(10.0)
    assert db_to_linear(0) == 1.0
    assert db_to_linear(-10) == pytest.approx(0.1)


def test_outage_vanishes_for_tiny_rate():
    chan = ChannelParams(snr_db=10, bandwidth_hz=20e6, rate_bps=1e-6)
    assert outage_probability(chan) < 1e-12


def test_outage_reference_point():
    # 200 kbps over 20 MHz at 10 dB: 1 - exp(-(2^0.01 - 1)/10)
    chan = ChannelParams(snr_db=10, **TABLE)
    assert outage_probability(chan) == pytest.approx(6.954e-4, rel=1e-3)


def test_outage_vanishes_at_high_snr():
    chan = ChannelParams(snr_db=300, **TABLE)
    assert outage_probability(chan) < 1e-20


def test_outage_range():
    # Strictly below one across the evaluated operating band; deep-outage
    # extremes may round to 1.0 in floating point.
    for snr in (10, 20, 40, 60):
        for rate in (1e3, 2e5, 1e7, 1e8):
            p = outage_probability(ChannelParams(snr_db=snr, bandwidth_hz=20e6, rate_bps=rate))
            assert 0.0 <= p < 1.0
    extreme = ChannelParams(snr_db=-30, bandwidth_hz=20e6, rate_bps=1e8)
    assert 0.0 <= outage_probability(extreme) <= 1.0


def test_outage_is_one_when_threshold_overflows():
    # R/W = 2000: 2^(R/W) is beyond double range, and the limit is exactly 1.
    chan = ChannelParams(snr_db=40.0, bandwidth_hz=1e3, rate_bps=2e6)
    assert outage_probability(chan) == 1.0


def test_outage_is_one_when_snr_underflows():
    # -4000 dB is 1e-400 in linear scale, which underflows a double to 0:
    # no fade carries any rate, and the limit is exactly 1.
    chan = ChannelParams(snr_db=-4000.0, **TABLE)
    assert chan.snr_linear == 0.0
    assert outage_probability(chan) == 1.0


def test_linear_snr_is_kept_and_leaves_equality_alone():
    # snr_linear is computed once and kept on the instance, which changes
    # neither equality nor the hash a cache keys channels by.
    chan = ChannelParams(snr_db=10.0, **TABLE)
    assert vars(chan)["snr_linear"] == chan.snr_linear == db_to_linear(10.0)
    assert chan == ChannelParams(snr_db=10.0, **TABLE) and hash(chan) == hash(ChannelParams(snr_db=10.0, **TABLE))
    assert chan.with_snr(20.0).snr_linear == db_to_linear(20.0)
    # A channel whose linear SNR overflows still constructs; each read raises a
    # ValueError that names snr_db.
    huge = ChannelParams(snr_db=4000.0, **TABLE)
    for _ in range(2):
        with pytest.raises(ValueError, match="snr_db"):
            huge.snr_linear


def test_outage_monotone_in_snr_and_rate():
    # Finite differences over a parameter grid.
    for snr in np.linspace(5, 60, 12):
        for rate in np.geomspace(1e4, 5e7, 12):
            base = ChannelParams(snr_db=float(snr), bandwidth_hz=20e6, rate_bps=float(rate))
            up_snr = outage_probability(base.with_snr(float(snr) + 0.5))
            up_rate = outage_probability(base.with_rate(float(rate) * 1.05))
            p = outage_probability(base)
            assert up_snr < p
            assert up_rate > p


def test_invalid_params_rejected():
    with pytest.raises(ValueError):
        ChannelParams(snr_db=10, bandwidth_hz=0, rate_bps=1e5)
    with pytest.raises(ValueError):
        ChannelParams(snr_db=10, bandwidth_hz=1e6, rate_bps=0)
    with pytest.raises(ValueError):
        ChannelParams(snr_db=math.inf, bandwidth_hz=1e6, rate_bps=1e5)


def test_fade_stream_deterministic():
    a = sample_fades(spawn_stream(123, 4, 5), 100)
    b = sample_fades(spawn_stream(123, 4, 5), 100)
    assert np.array_equal(a, b)
    c = sample_fades(spawn_stream(123, 4, 6), 100)
    assert not np.array_equal(a, c)


def test_fade_mean_is_unit():
    fades = sample_fades(spawn_stream(7), 1_000_000)
    assert fades.mean() == pytest.approx(1.0, abs=0.01)


@pytest.mark.parametrize("snr_db", [10.0, 20.0, 30.0])
def test_monte_carlo_outage_matches_closed_form(snr_db):
    # Empirical P(capacity < R) against the closed form, 3-sigma binomial band.
    chan = ChannelParams(snr_db=snr_db, **TABLE)
    n = 1_000_000
    fades = sample_fades(spawn_stream(99, int(snr_db)), n)
    capacity = chan.bandwidth_hz * np.log2(1.0 + chan.snr_linear * fades)
    freq = float((capacity < chan.rate_bps).mean())
    p = outage_probability(chan)
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(freq - p) <= 3 * sigma + 1e-9


def test_monte_carlo_outage_high_loss_regime():
    chan = ChannelParams(snr_db=10, bandwidth_hz=20e6, rate_bps=1e8)
    n = 200_000
    fades = sample_fades(spawn_stream(5), n)
    freq = float(
        (chan.bandwidth_hz * np.log2(1.0 + chan.snr_linear * fades) < chan.rate_bps).mean()
    )
    p = outage_probability(chan)
    assert abs(freq - p) <= 3 * math.sqrt(p * (1 - p) / n)


def test_link_capacity_matches_formula():
    chan = ChannelParams(snr_db=10, **TABLE)
    assert link_capacity_bps(chan, 0.0) == 0.0
    assert link_capacity_bps(chan, 1.0) == pytest.approx(20e6 * math.log2(11.0))


@settings(max_examples=300, deadline=None)
@given(
    log_w=st.floats(3.0, 8.0),
    snr_db=st.floats(-40.0, 60.0),
    log_ratio=st.floats(-3.0, math.log10(30.0)),
    fade=st.floats(0.0, 100.0),
    ulps=st.integers(-50, 50),
)
def test_fade_threshold_is_the_capacity_test(log_w, snr_db, log_ratio, fade, ulps):
    # W in 1e3-1e8 Hz, snr in -40-60 dB and R/W in 1e-3-30; fades drawn at random
    # and within 50 ulps of the threshold h*. The closed form (2^(R/W) - 1)/snr
    # is no centre for this: on 20k random channels it lay up to 1322 ulps from
    # where the capacity test flips.
    w = 10.0**log_w
    chan = ChannelParams(snr_db, w, 10.0**log_ratio * w)
    h_star = fade_threshold(chan, chan.rate_bps)
    near = h_star
    for _ in range(abs(ulps)):
        near = math.nextafter(near, math.copysign(math.inf, ulps))
    for h in (fade, near):
        assert (h >= h_star) == (link_capacity_bps(chan, h) >= chan.rate_bps)
    assert link_capacity_bps(chan, math.nextafter(h_star, 0.0)) < chan.rate_bps <= link_capacity_bps(chan, h_star)


def test_fade_threshold_is_inf_where_no_fade_carries_the_rate():
    # A linear SNR of 0 carries nothing, and at or below 0 dB no finite fade reaches
    # a rate whose 2^(R/W) overflows. Above 0 dB snr * h overflows at a finite fade,
    # whose capacity is inf, so that fade is the threshold.
    assert ChannelParams(-4000.0, **TABLE).snr_linear == 0.0
    assert fade_threshold(ChannelParams(-4000.0, **TABLE), 1e-300) == math.inf
    for snr_db in (-10.0, 0.0):
        chan = ChannelParams(snr_db, 1e3, 2e6)
        with pytest.raises(OverflowError):
            math.pow(2.0, chan.spectral_efficiency)
        assert fade_threshold(chan, chan.rate_bps) == math.inf
        assert link_capacity_bps(chan, sys.float_info.max) < chan.rate_bps
    chan = ChannelParams(10.0, 1e3, 2e6)
    h_star = fade_threshold(chan, chan.rate_bps)
    assert link_capacity_bps(chan, h_star) == math.inf > link_capacity_bps(chan, math.nextafter(h_star, 0.0))
    assert fade_threshold(chan, math.inf) == h_star


# ------------------------------------------------------ bulk seed derivation

_RNG = np.random.default_rng(2024)
SEEDS = (
    [0, 1, 2**32 - 1, 2**32, 2**32 + 998]
    + [int(s) for s in _RNG.integers(0, 2**32, size=16)]
    + [int(s) for s in _RNG.integers(0, 2**63, size=16)]
)
PATHS = [(), (3,), (1, 0), (1, 5), (0x4A, 1), (2, 7, 9)]


def _unplanned(seed, path):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=path))


def _seed_words(seeds, path):
    return _path_words(_seed_pool(seeds), path)


@pytest.mark.parametrize("path", PATHS)
def test_seed_words_equal_seed_sequence(path):
    words = _seed_words(SEEDS, path)
    assert words.dtype == np.uint64 and words.shape == (len(SEEDS), 4)
    for seed, row in zip(SEEDS, words):
        expected = np.random.SeedSequence(seed, spawn_key=path).generate_state(4, np.uint64)
        assert row.tolist() == expected.tolist(), seed


def test_derive_seed_equals_seed_sequence():
    for seed in SEEDS:
        for path in PATHS:
            expected = np.random.SeedSequence(seed, spawn_key=path).generate_state(1)[0]
            assert type(derive_seed(seed, *path)) is int
            assert derive_seed(seed, *path) == expected, (seed, path)


def test_planned_stream_equals_unplanned_stream():
    # The range crosses 2**32 (one-word and two-word seeds) and holds 3072
    # seeds; requests go forward, backward and outside the range.
    start = 2**32 - 1324
    seeds = range(start, start + 3072)
    probes = list(range(start - 3, seeds.stop + 3, 97)) + [2**32 - 1, 2**32, start, seeds.stop - 1, start + 5]
    plan = SeedPlan(seeds)
    for seed in probes:
        covered = seed in seeds
        for path in PATHS:
            planned, plain = plan.stream(seed, *path), _unplanned(seed, path)
            assert isinstance(planned.bit_generator.seed_seq, _Words) == covered, (seed, path)
            assert planned.bit_generator.state == plain.bit_generator.state
            assert planned.random(3).tolist() == plain.random(3).tolist()
            assert planned.exponential(1.0) == plain.exponential(1.0)
            assert planned.bit_generator.state == plain.bit_generator.state


def test_seed_plan_falls_back_outside_its_seeds():
    # Seeds that are not plain ints in the plan's range take SeedSequence
    # itself, a negative one included: the plan reads no row for it.
    plan = SeedPlan(range(-5, 20))
    assert (plan.start, plan.stop) == (0, 20)
    assert isinstance(plan.stream(12, 1).bit_generator.seed_seq, _Words)
    for seed in (20, np.int64(12), 2**64, 2**70):
        stream = plan.stream(seed, 1)
        assert isinstance(stream.bit_generator.seed_seq, np.random.SeedSequence)
        assert stream.bit_generator.state == _unplanned(seed, (1,)).bit_generator.state
    for stream in (plan.stream, spawn_stream):
        with pytest.raises(ValueError):
            stream(-1, 1)


def test_seed_plan_beyond_2_64_equals_spawn_stream():
    # A plan covers only the seeds below 2**64, and falls back to spawn_stream
    # for the rest, also when its whole range lies above.
    above = (range(2**70, 2**70 + 3), range(2**64, 2**64 + 3))
    straddling = (range(2**64 - 2, 2**64 + 2), range(2**64 - 1, 2**70))
    for seeds in above + straddling:
        plan = SeedPlan(seeds)
        assert plan.start <= plan.stop == 2**64
        for seed in [*seeds[:4], seeds[-1]]:
            for path in PATHS:
                planned = plan.stream(seed, *path)
                assert isinstance(planned.bit_generator.seed_seq, _Words) == (seed < 2**64), (seed, path)
                assert planned.bit_generator.state == spawn_stream(seed, *path).bit_generator.state, (seed, path)


def test_seed_plan_takes_multi_word_path_words():
    # SeedSequence splits a path word into 32-bit words, little-endian, so a
    # word at or above 2**32 hashes in as two or more; a negative one it rejects.
    plan = SeedPlan(range(10))
    for path in [(2**32,), (1, 2**32 + 7), (2**64,), (3, 2**64 + 2**32 + 1, 5), (2**100 - 1,)]:
        planned = plan.stream(4, *path)
        assert isinstance(planned.bit_generator.seed_seq, _Words), path
        assert planned.bit_generator.state == spawn_stream(4, *path).bit_generator.state, path
    for stream in (plan.stream, spawn_stream):
        for path in [(-1,), (1, -2**40)]:
            with pytest.raises(ValueError):
                stream(4, *path)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
def test_seed_words_vary_the_last_path_word(seed):
    # One seed's paths (head, 0) ... (head, count - 1) in one call.
    for head in (1, 2, 3, 4):
        for count in (1, 17, 400):
            words = _seed_words([seed], (head, np.arange(count, dtype=np.uint32)))
            assert words.dtype == np.uint64 and words.shape == (count, 4)
            for i, row in enumerate(words):
                expected = np.random.SeedSequence(seed, spawn_key=(head, i)).generate_state(4, np.uint64)
                assert row.tolist() == expected.tolist(), (head, count, i)


def _assert_streams_equal(plan, seed, head, count, table):
    streams = plan.streams(seed, head, count)
    assert len(streams) == count
    for i, stream in enumerate(streams):
        assert isinstance(stream.bit_generator.seed_seq, _Words) == table, i
        assert stream.bit_generator.state == spawn_stream(seed, head, i).bit_generator.state, i


# A plan's `streams`: a head's paths for every seed the plan covers, in one pass.
@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32 + 5, 2**64 - 1])
def test_spawn_streams_equal_spawn_stream(seed):
    for seeds in (range(seed, seed + 1), range(max(seed - 2, 0), seed + 3)):
        for head in (1, 2, 3, 4):
            for count in (1, 15, 16, 49, 400):
                plan = SeedPlan(seeds)
                _assert_streams_equal(plan, seed, head, count, table=True)
                # One row array per path, one table per head and count, kept.
                assert list(plan.tables) == [(head, count)] and not plan.rows
                table = plan.tables[head, count]
                assert len(table) == count and all(rows.shape == (plan.stop - plan.start, 4) for rows in table)
                _assert_streams_equal(plan, seed, head, count, table=True)
                assert plan.tables[head, count] is table
    # Other counts under a head, and single paths, beside a head's table.
    plan = SeedPlan(range(seed, seed + 1))
    for count in (16, 1, 49):
        _assert_streams_equal(plan, seed, 1, count, table=True)
    assert plan.stream(seed, 1, 48).bit_generator.state == spawn_stream(seed, 1, 48).bit_generator.state
    assert set(plan.tables) == {(1, 16), (1, 1), (1, 49)} and set(plan.rows) == {(1, 48)}


@pytest.mark.parametrize("seed", [np.int64(12), 2**64, 2**70])
def test_spawn_streams_fall_back_for_other_seeds(seed):
    # Seeds that are not plain ints in the plan's range take SeedSequence itself.
    for seeds in (range(10, 20), range(seed, seed + 1)):
        plan = SeedPlan(seeds)
        for count in (1, 32):
            _assert_streams_equal(plan, seed, 1, count, table=False)


def test_spawn_streams_rejects_negative_seed():
    for seeds in (range(-1, 0), range(0, 10)):
        for count in (1, 32):
            with pytest.raises(ValueError):
                SeedPlan(seeds).streams(-1, 1, count)
