import ast
import dataclasses
import gc
import hashlib
import math
import operator
import sys
import weakref
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from cecbench import channel, sim
from cecbench.cec import CecConfig, ucc_case1_bound, ucc_case3_at_optimum
from cecbench.channel import ChannelParams, link_capacity_bps, outage_probability, spawn_stream, spawn_streams
from cecbench.protocols import (
    HarqParams,
    MonteCarloEstimate,
    NetworkShape,
    Protocol,
    _round_information,
    harq_pfail,
    occupycow_pfail,
    occupycow_phase_probs,
)
from cecbench.sim import (
    FlowOutcome,
    FlowSpec,
    SimTrace,
    TRACE_HEADER,
    TraceEvent,
    _Run,
    _attempt_test,
    _fades,
    _uniforms,
    build_flows,
    estimate_pfail,
    export_trace,
    measure_cec,
    reflexup_plan,
    relay_topology,
    run_baseline,
    run_reflexup,
    star_topology,
)

PERFECT = ChannelParams(snr_db=600, bandwidth_hz=20e6, rate_bps=200e3)
DEAD = ChannelParams(snr_db=-300, bandwidth_hz=20e6, rate_bps=200e3)
# ~20% outage: rate chosen so (2^(R/W) - 1)/snr ~ 0.223 at 10 dB
LOSSY = ChannelParams(snr_db=10, bandwidth_hz=20e6, rate_bps=33.8e6)

CEC_SMALL = CecConfig(n_tasks=4, k_rbs=20, c=1.5, c0=0.05)
SR, HQ, OC = Protocol.SELECTIVE_REPEAT_ARQ, Protocol.HARQ, Protocol.OCCUPY_COW


def _reflexup_setup(n_sensors=10, n_relays=2, n_tasks=4, deadline=None):
    topo = relay_topology(n_sensors, n_relays)
    if deadline is None:
        _, deadline = reflexup_plan(CEC_SMALL, 0.005)
    flows = build_flows(topo, n_tasks, deadline=deadline)
    return topo, flows


# ------------------------------------------------------------- determinism


def test_identical_seeds_replay_identical_traces():
    topo, flows = _reflexup_setup()
    a = run_reflexup(topo, flows, LOSSY, CEC_SMALL, seed=42, t_cp=0.005)
    b = run_reflexup(topo, flows, LOSSY, CEC_SMALL, seed=42, t_cp=0.005)
    assert a.events == b.events
    assert a.duration == b.duration
    c = run_reflexup(topo, flows, LOSSY, CEC_SMALL, seed=43, t_cp=0.005)
    assert a.events != c.events


# ------------------------------------------------------------ perfect channel


def test_perfect_channel_no_retransmissions():
    topo, flows = _reflexup_setup()
    trace = run_reflexup(topo, flows, PERFECT, CEC_SMALL, seed=1, t_cp=0.005)
    assert not trace.any_communication_failure
    assert all(o.delivered == o.required for o in trace.flows.values())
    assert all(o.dispatched for o in trace.flows.values())
    kinds = {e.event_type for e in trace.events}
    assert "retransmit" not in kinds
    assert "nack" not in kinds


def test_perfect_channel_duration_is_pure_transfer():
    topo, flows = _reflexup_setup(n_sensors=10, n_relays=2, n_tasks=2)
    trace = run_reflexup(topo, flows, PERFECT, CEC_SMALL, seed=1, t_cp=0.005)
    slot = 176 / PERFECT.rate_bps
    waves = 2 * 10 / 2  # packets per relay in phase 1
    uplink = 2 * 10  # every packet forwarded once
    assert trace.duration == pytest.approx((waves + uplink) * slot)


# ------------------------------------------------- single forced drop trace


def test_single_drop_triggers_one_bundled_repair():
    topo, flows = _reflexup_setup(n_sensors=2, n_relays=1, n_tasks=1)
    # Mild uplink loss; scan for a replay where exactly one uplink transmit
    # is lost and the repair lands.
    chan = ChannelParams(snr_db=10, bandwidth_hz=20e6, rate_bps=20e6)
    for seed in range(400):
        trace = run_reflexup(
            topo, flows, chan, CEC_SMALL, seed=seed, t_cp=0.005, chan_local=PERFECT
        )
        lost = [e for e in trace.events if e.event_type == "transmit" and e.outcome == "lost"]
        if len(lost) != 1:
            continue
        retx = [e for e in trace.events if e.event_type == "retransmit"]
        if not (len(retx) == 1 and retx[0].outcome == "ok"):
            continue
        nacks = [e for e in trace.events if e.event_type == "nack"]
        assert len(nacks) == 1
        assert (nacks[0].task_id, nacks[0].packet_id) == (lost[0].task_id, lost[0].packet_id)
        # The repair bundles the missing packet with the cached predecessor:
        # two airtimes for one retransmission.
        n_phase = sum(
            1
            for e in trace.events
            if e.event_type == "transmit" and e.outcome in ("ok", "lost")
        )
        assert trace.slots == n_phase + 2
        assert all(o.delivered == o.required for o in trace.flows.values())
        return
    pytest.fail("no single-drop replay found in the scanned seeds")


def test_every_retransmit_is_preceded_by_matching_nack():
    topo, flows = _reflexup_setup()
    trace = run_reflexup(topo, flows, LOSSY, CEC_SMALL, seed=9, t_cp=0.005)
    seen_nacks = set()
    retx_count = 0
    for ev in trace.events:
        if ev.event_type == "nack":
            seen_nacks.add((ev.task_id, ev.packet_id))
        elif ev.event_type == "retransmit" and ev.dst == sim.CONTROLLER:
            retx_count += 1
            assert (ev.task_id, ev.packet_id) in seen_nacks
    assert retx_count > 0  # the lossy channel must have exercised the path


def _tight_reflexup(deadline_slots):
    """Two 4-packet tasks over two relays: a loss-free local link, the LOSSY uplink, and a
    deadline of `deadline_slots` slots, each one packet's airtime on either link."""
    topo = relay_topology(4, 2)
    flows = build_flows(topo, 2, deadline=deadline_slots * 176 / LOSSY.rate_bps)
    local = ChannelParams(snr_db=600, bandwidth_hz=20e6, rate_bps=LOSSY.rate_bps)
    return run_reflexup(topo, flows, LOSSY, CecConfig(2, 8, 1.0, 0.05), seed=0, chan_local=local)


def test_reflexup_skips_phase_one_hops_past_the_deadline():
    # Phase 1 takes four one-slot waves, two per task. At a 2-slot deadline task 1's hops,
    # in waves 2 and 3, cannot end in time: each is skipped, with no attempt or event.
    trace = _tight_reflexup(2)
    task0, task1 = trace.flows[0], trace.flows[1]
    assert (task1.attempts, task1.skipped, task1.first_attempt_time) == (0, 4, None)
    assert not any(e.task_id == 1 for e in trace.events)
    # Task 0's packets all reach their relays, but no uplink slot ends by the deadline.
    assert (task0.attempts, task0.delivered, task0.skipped) == (4, 0, 4)
    assert trace.slots == 4 and all(o.communication_failure for o in trace.flows.values())


def test_reflexup_repair_round_without_an_attempt_ends_the_run():
    # At 13.25 slots phase 2 ends at slot 12 with three packets lost on the uplink. A repair
    # bundle takes two slots, which the deadline no longer admits: the round nacks each
    # missing packet and attempts none. The run ends there; it would otherwise repeat the
    # same round forever.
    trace = _tight_reflexup(13.25)
    tail = [(e.event_type, e.task_id, e.packet_id) for e in trace.events[-3:]]
    assert tail == [("nack", 0, 2), ("nack", 0, 3), ("nack", 1, 2)]
    assert not any(e.event_type == "retransmit" for e in trace.events)
    assert trace.slots == 12
    assert [(o.delivered, o.skipped) for o in trace.flows.values()] == [(2, 2), (3, 1)]


# -------------------------------------------------------------- conservation


def test_packet_conservation_against_trace():
    topo, flows = _reflexup_setup()
    trace = run_reflexup(topo, flows, LOSSY, CEC_SMALL, seed=5, t_cp=0.005)
    for task, out in trace.flows.items():
        data = [
            e
            for e in trace.events
            if e.task_id == task and e.event_type in ("transmit", "retransmit")
        ]
        ok = sum(1 for e in data if e.outcome == "ok")
        lost = sum(1 for e in data if e.outcome == "lost")
        assert ok + lost == out.attempts
        assert lost == out.losses
        acked = {
            (e.task_id, e.packet_id)
            for e in trace.events
            if e.event_type == "ack" and e.task_id == task
        }
        assert len(acked) == out.delivered
        assert out.delivered <= out.required


def test_event_slots_are_non_decreasing():
    topo, flows = _reflexup_setup()
    trace = run_reflexup(topo, flows, LOSSY, CEC_SMALL, seed=6, t_cp=0.005)
    slots = [e.slot for e in trace.events]
    assert all(b >= a for a, b in zip(slots, slots[1:]))


# ---------------------------------------------------- per-link loss frequency


def test_per_link_loss_matches_outage():
    topo = relay_topology(n_sensors=2, n_relays=1)
    flows = [
        FlowSpec(task_id=0, sources=topo.sensors, packets_required=4000, epsilon=1.0, deadline=1e6)
    ]
    local = ChannelParams(snr_db=10, bandwidth_hz=20e6, rate_bps=22e6)
    trace = run_reflexup(
        topo, flows, LOSSY, CEC_SMALL, seed=12, t_cp=0.005, chan_local=local, max_rounds=0
    )
    p_local = outage_probability(local)
    p_up = outage_probability(LOSSY)
    for (src, dst), (attempts, losses) in trace.link_stats.items():
        p = p_up if dst == sim.CONTROLLER else p_local
        sigma = math.sqrt(p * (1 - p) / attempts)
        assert abs(losses / attempts - p) <= 3 * sigma + 1e-9, (src, dst)


# ----------------------------------------------------------------- baselines


def test_selective_repeat_lossless_latency_matches_formula_limit():
    topo = star_topology(5)
    flows = build_flows(topo, 1, deadline=10.0, packets_per_task=5)
    trace = run_baseline(Protocol.SELECTIVE_REPEAT_ARQ, topo, flows, PERFECT, seed=2, p_timeout=0.0)
    # Each delivered packet spends data + ack + turnaround: the 3x factor of
    # the lossless analytic limit.
    assert trace.duration == pytest.approx(5 * 3 * 176 / PERFECT.rate_bps)
    assert not trace.any_communication_failure


def test_selective_repeat_retransmits_only_missing():
    topo = star_topology(3)
    flows = build_flows(topo, 1, deadline=10.0, packets_per_task=3)
    chan = ChannelParams(snr_db=10, bandwidth_hz=20e6, rate_bps=30e6)
    trace = run_baseline(Protocol.SELECTIVE_REPEAT_ARQ, topo, flows, chan, seed=8, p_timeout=0.0)
    acked = [e for e in trace.events if e.event_type == "ack"]
    assert len({(e.task_id, e.packet_id) for e in acked}) == trace.flows[0].delivered
    for ev in trace.events:
        if ev.event_type == "retransmit":
            # A retransmitted packet must not already be acknowledged.
            prior = [
                e
                for e in trace.events
                if e.event_type == "ack"
                and (e.task_id, e.packet_id) == (ev.task_id, ev.packet_id)
                and trace.events.index(e) < trace.events.index(ev)
            ]
            assert not prior


def test_harq_decodes_first_round_at_high_snr():
    topo = star_topology(4)
    flows = build_flows(topo, 1, deadline=10.0, packets_per_task=4)
    trace = run_baseline(Protocol.HARQ, topo, flows, PERFECT, seed=3, harq=HarqParams(7, 2))
    assert trace.slots == 4  # one round per packet
    assert not trace.any_communication_failure


def test_harq_abandons_after_round_budget():
    topo = star_topology(1)
    flows = build_flows(topo, 1, deadline=10.0, packets_per_task=1)
    trace = run_baseline(Protocol.HARQ, topo, flows, DEAD, seed=3, harq=HarqParams(3, 2))
    assert trace.flows[0].delivered == 0
    assert trace.any_communication_failure
    assert trace.slots == 3


def _oc_flows(n, deadline=10.0):
    return [
        FlowSpec(task_id=i, sources=(f"v{i+1}",), packets_required=1, epsilon=1.0, deadline=deadline)
        for i in range(n)
    ]


def test_occupy_cow_matches_enumeration_oracle():
    n = 4
    topo = star_topology(n)
    chan = ChannelParams(snr_db=40, bandwidth_hz=20e6, rate_bps=200e3)
    t1, t2 = 4e-6, 2e-6
    flows = _oc_flows(n)
    from cecbench.protocols import NetworkShape, occupycow_phase_probs

    shape = NetworkShape(n_total=n + 1, n_sensors=n, n_relays=1, relay_fanout=float(n), packet_bits=176)
    params = occupycow_phase_probs(shape, chan, t1, t2)
    analytic = occupycow_pfail(n, params)
    runs = 20_000
    p_hat, _ = estimate_pfail(
        runs,
        lambda s: run_baseline(
            Protocol.OCCUPY_COW, topo, flows, chan, seed=s, oc_t1=t1, oc_t2=t2, record_events=False
        ),
        seed=21,
    )
    sigma = math.sqrt(analytic * (1 - analytic) / runs)
    assert abs(p_hat - analytic) <= 3 * sigma


def test_occupy_cow_rejects_multi_packet_flows():
    topo = star_topology(2)
    flows = build_flows(topo, 1, deadline=1.0, packets_per_task=4)
    with pytest.raises(ValueError):
        run_baseline(Protocol.OCCUPY_COW, topo, flows, PERFECT, seed=0)


@pytest.mark.parametrize("t1", [0.0, -1e-3, math.nan, math.inf])
def test_occupy_cow_rejects_bad_phase_durations(t1):
    # Checked on every run, also when no node needs the rescue phase.
    with pytest.raises(ValueError):
        run_baseline(OC, star_topology(3), _oc_flows(3), PERFECT, seed=0, oc_t1=t1, oc_t2=1e-3)
    with pytest.raises(ValueError):
        run_baseline(OC, star_topology(3), _oc_flows(3), PERFECT, seed=0, oc_t1=1e-3, oc_t2=t1)


def test_runs_restore_the_collector_state():
    topo, flows = _reflexup_setup(n_sensors=4, n_relays=2, n_tasks=1)
    assert gc.isenabled()
    run_reflexup(topo, flows, LOSSY, CEC_SMALL, seed=0)
    run_baseline(SR, topo, flows, LOSSY, seed=0)
    assert gc.isenabled()
    with pytest.raises(ValueError):
        run_baseline(OC, topo, flows, LOSSY, seed=0)  # multi-packet flows
    assert gc.isenabled()
    gc.disable()
    try:
        run_baseline(HQ, topo, flows, LOSSY, seed=0)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_only_recording_runs_hold_the_collector(monkeypatch):
    # Seen from inside a run (its stream set-up): held when the run records,
    # left alone when it does not, and restored when a run raises in its
    # set-up (a repeated task id) or after it (two Occupy CoW flows from one node).
    seen = []

    def spawn(*args):
        seen.append(gc.isenabled())
        return spawn_stream(*args)

    monkeypatch.setattr(sim, "spawn_stream", spawn)
    topo, flows = _reflexup_setup(n_sensors=4, n_relays=2, n_tasks=1)
    for record in (True, False):
        seen.clear()
        run_reflexup(topo, flows, LOSSY, CEC_SMALL, seed=0, record_events=record)
        run_baseline(SR, topo, flows, LOSSY, seed=0, record_events=record)
        assert seen and set(seen) == {not record} and gc.isenabled()
    with pytest.raises(ValueError, match="distinct task ids"):
        run_baseline(SR, topo, flows + flows, LOSSY, seed=0)
    assert gc.isenabled()
    star = star_topology(2)
    with pytest.raises(ValueError, match="sends more than one flow"):
        run_baseline(OC, star, [FlowSpec(i, ("v1",), 1, 1.0, 1.0) for i in range(2)], LOSSY, seed=0)
    assert gc.isenabled()


def test_run_baseline_rejects_reflexup_tag():
    topo = star_topology(2)
    flows = build_flows(topo, 1, deadline=1.0)
    with pytest.raises(ValueError):
        run_baseline(Protocol.REFLEXUP, topo, flows, PERFECT, seed=0)


def _entry_points():
    star, relays = star_topology(2), relay_topology(2, 1)
    star_flows, relay_flows = build_flows(star, 1, deadline=1.0), build_flows(relays, 1, deadline=1.0)
    runners = {tag.value: partial(run_baseline, tag, star, star_flows, PERFECT, seed=0) for tag in (SR, HQ)}
    runners["reflexup"] = partial(run_reflexup, relays, relay_flows, PERFECT, CEC_SMALL, seed=0)
    return runners


@pytest.mark.parametrize("packet_bits", [0, -176, 1.5, 176.0, "176"])
def test_runs_reject_packet_bits_that_are_not_positive_integers(packet_bits):
    # On a lossy channel a 0-bit packet took no airtime, so Selective Repeat and
    # ReFlexUp retried it forever; a negative size gave a negative duration. The
    # perfect channel keeps this test finite where the check is missing.
    for name, run in _entry_points().items():
        with pytest.raises(ValueError, match="packet_bits"):
            run(packet_bits=packet_bits)
        assert run(packet_bits=np.int64(1)).flows[0].dispatched, name


@pytest.mark.parametrize("p_timeout", [math.nan, 1.5, -0.5, math.inf])
def test_runs_reject_timeout_probabilities_outside_the_unit_interval(p_timeout):
    # NaN ran as no timeouts, 1.5 as a timeout on every attempt and -0.5 as no
    # timeouts, where `srarq_pfail` rejects all three.
    for name, run in _entry_points().items():
        with pytest.raises(ValueError, match="p_timeout"):
            run(p_timeout=p_timeout)
        for edge in (0.0, 1.0):
            assert run(p_timeout=edge).flows[0].dispatched == (edge == 0.0 or name == "harq"), (name, edge)


# -------------------------------------------------------------- measure_cec


def test_measure_cec_respects_case1_bound():
    topo, flows = _reflexup_setup()
    trace = run_reflexup(topo, flows, PERFECT, CEC_SMALL, seed=4, t_cp=0.005)
    result = measure_cec(trace, CEC_SMALL, t_cp_per_task=0.005)
    assert result.u_cc <= ucc_case1_bound(CEC_SMALL)
    assert result.feasible


def test_measure_cec_zero_compute_for_slot_filling_task():
    flows = {0: FlowOutcome(task_id=0, required=1, delivered=1, first_attempt_time=0.0, completion_time=None)}
    trace = SimTrace(
        protocol=Protocol.REFLEXUP, events=[], flows=flows, duration=1.0, slots=1, t_p=1.0
    )
    result = measure_cec(trace, CEC_SMALL, t_cp_per_task=0.005)
    assert result.per_task[0].u_c == 0.0


def test_measure_cec_rejects_oversubscribed_compute():
    topo, flows = _reflexup_setup()
    trace = run_reflexup(topo, flows, PERFECT, CEC_SMALL, seed=4, t_cp=0.005)
    with pytest.raises(ValueError):
        measure_cec(trace, CEC_SMALL, t_cp_per_task=10.0)


def test_measure_cec_near_optimum_when_channel_permits_target():
    # Rate tuned so the loss-free transfer nearly fills the optimal window.
    cec = CecConfig(n_tasks=1, k_rbs=20, c=1.5, c0=0.05)
    target, t_p = reflexup_plan(cec, 0.005)
    topo = relay_topology(n_sensors=10, n_relays=2)
    flows = build_flows(topo, 1, deadline=t_p)
    total_packets = 10
    airtime_budget = 0.97 * target / (total_packets / 2 + total_packets)
    rate = 176 / airtime_budget
    chan = ChannelParams(snr_db=600, bandwidth_hz=20e6, rate_bps=rate)
    trace = run_reflexup(topo, flows, chan, cec, seed=2, t_cp=0.005)
    result = measure_cec(trace, cec, t_cp_per_task=0.005)
    optimum = ucc_case3_at_optimum(0.005, cec)
    assert result.u_cc <= optimum + 1e-12
    assert result.u_cc >= 0.95 * optimum


# ------------------------------------------------------------- estimate_pfail


def _wilson_edge_halfwidth(runs, confidence=0.99):
    # At p = 0 the Wilson interval is [0, z^2 / (n + z^2)]; at p = 1 it is
    # its mirror image, so both half-widths are z^2 / (n + z^2).
    z2 = float(ndtri(0.5 + confidence / 2.0)) ** 2
    return z2 / (runs + z2)


class _Failing:
    def __init__(self, failed):
        self.any_communication_failure = failed


def test_estimate_pfail_perfect_channel():
    topo, flows = _reflexup_setup(n_sensors=4, n_relays=1, n_tasks=1)
    p, hw = estimate_pfail(
        1000,
        lambda s: run_reflexup(topo, flows, PERFECT, CEC_SMALL, seed=s, t_cp=0.005, record_events=False),
        seed=3,
    )
    assert p == 0.0
    assert hw == pytest.approx(_wilson_edge_halfwidth(1000), rel=1e-12)


def test_estimate_pfail_dead_channel():
    topo = relay_topology(2, 1)
    flows = build_flows(topo, 1, deadline=0.01)
    p, hw = estimate_pfail(
        1000,
        lambda s: run_reflexup(topo, flows, DEAD, CEC_SMALL, seed=s, t_cp=0.005, record_events=False),
        seed=3,
    )
    assert p == 1.0
    assert hw == pytest.approx(_wilson_edge_halfwidth(1000), rel=1e-12)


@pytest.mark.parametrize("every", [2, 4, 7, 1000])
def test_estimate_pfail_wilson_halfwidth(every):
    # The Wilson interval's ends are the roots in pi of
    # (p - pi)^2 = z^2 pi (1 - pi) / n.
    runs = 1000
    p, hw = estimate_pfail(runs, lambda s: _Failing(s % every == 0), seed=5)
    assert p == pytest.approx(1.0 / every, abs=1.0 / runs)
    k = float(ndtri(0.995)) ** 2 / runs
    lo, hi = sorted(np.roots([1.0 + k, -(2.0 * p + k), p * p]).real)
    assert hw == pytest.approx(max(p - lo, hi - p), rel=1e-9)
    assert lo < p < hi


def test_estimate_pfail_rejects_few_runs():
    with pytest.raises(ValueError):
        estimate_pfail(10, lambda s: None, seed=0)


@pytest.mark.parametrize("runs", [1000.0, "2000", None])
def test_estimate_pfail_rejects_runs_that_are_not_integers(runs):
    # A float count failed with a TypeError from inside range(), and a string
    # with one from the comparison against the minimum.
    with pytest.raises(ValueError, match="runs must be an integer"):
        estimate_pfail(runs, lambda s: _Failing(False), seed=0)
    assert estimate_pfail(np.int64(1000), lambda s: _Failing(False), seed=0).trials == 1000


def test_estimate_pfail_returns_a_proportion_record():
    runs = 1000
    est = estimate_pfail(runs, lambda s: _Failing(s % 3 == 0), seed=5)
    p, hw = est
    assert isinstance(est, MonteCarloEstimate) and (est.trials, est.bound) == (runs, None)
    assert est.failures == round(p * runs) and est.failures > 0
    assert (p, hw) == (est.value, est.ci99)


def _criterion4_shapes():
    # The four scenario shapes of criterion 4 (tests/test_acceptance.py), on
    # channels where a large share of runs fail, so that both outcomes and
    # many different draws occur.
    m_bits = 176
    star1, star6, relay = star_topology(1), star_topology(6), relay_topology(1, 1)
    sr_chan = ChannelParams(snr_db=-20, bandwidth_hz=20e6, rate_bps=200e3)
    sr_flows = [FlowSpec(0, star1.sensors, 1, 1.0, deadline=1.5 * m_bits / sr_chan.rate_bps)]
    harq_chan = ChannelParams(snr_db=-9, bandwidth_hz=20e6, rate_bps=20e6)
    harq_flows = [FlowSpec(0, star1.sensors, 1, 1.0, deadline=10.0)]
    oc_chan = ChannelParams(snr_db=35, bandwidth_hz=20e6, rate_bps=200e3)
    oc_flows = [FlowSpec(i, (f"v{i+1}",), 1, 1.0, deadline=1.0) for i in range(6)]
    session_rate = m_bits * 2 / 1e-5
    rfu_chan = ChannelParams(snr_db=10, bandwidth_hz=20e6, rate_bps=session_rate)
    rfu_flows = [FlowSpec(0, relay.sensors, 1, 1.0, deadline=2.4 * m_bits / session_rate)]
    cec = CecConfig(n_tasks=1, k_rbs=4, c=1.0, c0=0.05)
    return {
        "selective_repeat": lambda s: run_baseline(SR, star1, sr_flows, sr_chan, seed=s, p_timeout=1e-4),
        "harq": lambda s: run_baseline(HQ, star1, harq_flows, harq_chan, seed=s, harq=HarqParams(7, 2)),
        "occupy_cow": lambda s: run_baseline(OC, star6, oc_flows, oc_chan, seed=s, oc_t1=5e-6, oc_t2=2.5e-6),
        "reflexup": lambda s: run_reflexup(
            relay, rfu_flows, rfu_chan, cec, seed=s, t_cp=0.005, p_timeout=1e-4
        ),
    }


@pytest.mark.parametrize("shape", sorted(_criterion4_shapes()))
def test_estimate_pfail_runs_equal_plain_runs(shape):
    # estimate_pfail derives its runs' stream seeds in bulk, one plan per
    # 1024 runs; each run must replay, event for event, as the same scenario
    # called outside a plan, on both sides of each plan boundary.
    scenario = _criterion4_shapes()[shape]
    runs, seed = 2100, 17
    seen, plans = [], set()

    def recorded(s):
        plans.add((sim._PLAN.get().start, sim._PLAN.get().stop))
        trace = scenario(s)
        seen.append((s, trace.events, trace.any_communication_failure))
        return trace

    p, _ = estimate_pfail(runs, recorded, seed=seed)
    base = int(np.random.SeedSequence(seed).generate_state(1)[0])
    assert sorted(plans) == [(base, base + 1024), (base + 1024, base + 2048), (base + 2048, base + runs)]
    plain = []
    for i in range(runs):
        trace = scenario(base + i)
        plain.append((base + i, trace.events, trace.any_communication_failure))
    assert seen == plain
    failures = sum(failed for _, _, failed in plain)
    assert 0 < failures < runs
    assert p == failures / runs


def _pfail_shape(protocol, snr):
    """Criterion 4's scenario for one protocol at `snr` dB, unrecorded, as the `pfail` benchmark runs it."""
    m_bits = 176
    chan = ChannelParams(snr_db=snr, bandwidth_hz=20e6, rate_bps=200e3)
    if protocol in (SR, HQ):
        topo = star_topology(1)
        deadline = 1.5 * m_bits / chan.rate_bps if protocol == SR else 10.0
        flows = [FlowSpec(0, topo.sensors, 1, 1.0, deadline=deadline)]
        kw = {"p_timeout": 1e-4} if protocol == SR else {"harq": HarqParams(7, 2)}
        return lambda s: run_baseline(protocol, topo, flows, chan, seed=s, record_events=False, **kw)
    if protocol == OC:
        topo = star_topology(6)
        flows = [FlowSpec(i, (f"v{i+1}",), 1, 1.0, deadline=1.0) for i in range(6)]
        return lambda s: run_baseline(OC, topo, flows, chan, seed=s, oc_t1=5e-6, oc_t2=2.5e-6, record_events=False)
    session_rate = m_bits * 2 / 1e-5
    chan = ChannelParams(snr_db=snr, bandwidth_hz=20e6, rate_bps=session_rate)
    topo = relay_topology(1, 1)
    cec = CecConfig(n_tasks=1, k_rbs=4, c=1.0, c0=0.05)
    flows = [FlowSpec(0, topo.sensors, 1, 1.0, deadline=2.4 * m_bits / session_rate)]
    return lambda s: run_reflexup(topo, flows, chan, cec, seed=s, t_cp=0.005, p_timeout=1e-4, record_events=False)


# Digests of estimate_pfail's unrecorded in-plan runs on criterion 4's shapes
# (1000 runs, criterion 4's seeds): each run's (any_communication_failure,
# duration, slots) and every outcome field of every flow, in run order. SR and
# HARQ fail no run at 10 or 40 dB, so each also runs at an SNR where about
# half their runs fail.
PLAN_PATH_SNRS = {SR: (10.0, 40.0, -20.0), HQ: (10.0, 40.0, -30.0), OC: (10.0, 40.0), Protocol.REFLEXUP: (10.0, 40.0)}
PLAN_PATH_DIGESTS = {
    "selective_repeat_arq-10db": "1dc9af16afe83fba1affed2e70eb1162ebd31b1c0feb8813101e8e734357b13a",  # 0 failures
    "selective_repeat_arq-40db": "1dc9af16afe83fba1affed2e70eb1162ebd31b1c0feb8813101e8e734357b13a",  # 0 failures
    "selective_repeat_arq--20db": "21f43f3c48a450a69c1ab531f481672765d185ba33349ed3e4530ae0e6bab160",  # 513 failures
    "harq-10db": "0a6a420717d40434f4ec9b66546cf16b24bb54cad98faa4ba84545f47b1affd0",  # 0 failures
    "harq-40db": "0a6a420717d40434f4ec9b66546cf16b24bb54cad98faa4ba84545f47b1affd0",  # 0 failures
    "harq--30db": "b95d75f533cc0424bd67ab66d8e8dc803a354187599816b95da53f38786cbdb4",  # 542 failures
    "occupy_cow-10db": "4daa8dc71eac9dec101892e316f283a0913c987fec46131ec6fcf543691f50cc",  # 0 failures
    "occupy_cow-40db": "5d86d94908b00d2613166841f6fae0be58647346e18af515f8cf5f34964e143e",  # 121 failures
    "reflexup-10db": "a387e2d8f71f0921b350e8658f96087bd9d1354366ed4c5b138af970f72f84a5",  # 390 failures
    "reflexup-40db": "b61cb1ecdc1003c4a893bffcbee86f85895b0c8ad2f6ca75c852f80e1f6a3554",  # 0 failures
}


@pytest.mark.parametrize("protocol", sorted(PLAN_PATH_SNRS, key=lambda p: p.value), ids=lambda p: p.value)
def test_unrecorded_plan_runs_keep_their_digests(protocol):
    # Every SNR, and the first again, run in one process: anything a runner
    # keeps between runs (Occupy CoW's rescue probability) must follow the channel.
    seed_base = {SR: 0, HQ: 100, OC: 200, Protocol.REFLEXUP: 300}[protocol]
    snrs = PLAN_PATH_SNRS[protocol]
    for snr in snrs + snrs[:1]:
        scenario = _pfail_shape(protocol, snr)
        h = hashlib.sha256()

        def digested(s):
            trace = scenario(s)
            h.update(repr((trace.any_communication_failure, trace.duration, trace.slots)).encode())
            for task, out in trace.flows.items():
                h.update(repr((task, *(getattr(out, f) for f in OUTCOME_FIELDS))).encode())
            return trace

        estimate_pfail(1000, digested, seed=seed_base + abs(int(snr)))
        assert h.hexdigest() == PLAN_PATH_DIGESTS[f"{protocol.value}-{snr:g}db"], snr


# Python frames entered in cecbench code (profiler `call` events) by 1000 warm,
# unrecorded runs of each criterion-4 shape, seeds 5000-5999, inside one of
# estimate_pfail's plans. A frame is in cecbench code when its code file is, or
# when its globals are a cecbench module's, as for the __init__, __eq__ and
# __hash__ that dataclasses generate. The same seeds give the same draws and
# branches, so a count is exact. Before the per-run glue was cut (generator
# readers, per-flow dispatch re-test, deadline scan, a frame per stream set-up
# and per scalar draw) they were, by code file only: SR 34000 / 34000, HARQ
# 25000 / 25000, Occupy CoW 68000 / 97096 and ReFlexUp 57196 / 58000, at
# 10 / 40 dB. Before the set-up memo, the collector pause of unrecorded runs,
# the per-link reader frame and the per-run ReFlexUp plan went: by code file
# only SR 20000, HARQ 17000, Occupy CoW 41000 / 56315 and ReFlexUp 42180 /
# 42000; counted as now SR 22000, HARQ 19000, Occupy CoW 48000 / 63937 and
# ReFlexUp 44180 / 44000.
FRAME_BUDGETS = {
    (SR, 10.0): 19000, (SR, 40.0): 19000,
    (HQ, 10.0): 17000, (HQ, 40.0): 17000,
    (OC, 10.0): 40000, (OC, 40.0): 55315,
    (Protocol.REFLEXUP, 10.0): 35180, (Protocol.REFLEXUP, 40.0): 35000,
}


@pytest.mark.parametrize("shape", sorted(FRAME_BUDGETS, key=lambda k: (k[0].value, k[1])), ids=lambda k: f"{k[0].value}-{k[1]:g}db")
def test_frames_per_run_stay_within_budget(shape):
    scenario = _pfail_shape(*shape)
    package = str(Path(sim.__file__).parent)
    seeds = range(5000, 6000)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and (
            frame.f_code.co_filename.startswith(package) or frame.f_globals.get("__name__", "").startswith("cecbench")
        ):
            calls += 1

    # Cached per-channel and per-config values are found by identity, as in one
    # estimate, not by a generated __eq__ against an equal key an earlier test left.
    sim._padded_slot.cache_clear()
    sim._rescue_failure.cache_clear()
    token = sim._PLAN.set(sim._Plan(seeds))
    try:
        for s in seeds:  # warm: the plan's rows, the set-up memo and the runners' caches
            scenario(s)
        sys.setprofile(count)
        try:
            for s in seeds:
                scenario(s)
        finally:
            sys.setprofile(None)
    finally:
        sim._PLAN.reset(token)
    assert calls <= FRAME_BUDGETS[shape]


@pytest.mark.parametrize("case", ["appended_flow", "equal_spec", "two_topologies", "two_protocols"])
def test_runs_that_share_a_set_up_equal_plain_runs(case):
    # Inside an estimate a run reuses the last run's set-up only for the same
    # protocol, the same topology object and the same FlowSpec objects. Each
    # case changes one of them between runs; every run must still replay, event
    # for event and outcome for outcome, as a plain run of what it was given.
    topo_a, topo_b = relay_topology(4, 2), relay_topology(4, 1)
    _, deadline = reflexup_plan(CEC_SMALL, 0.005)
    flows = build_flows(topo_a, 2, deadline=deadline)
    base, seen = channel.derive_seed(3), []

    def scenario(s):
        i = s - base
        if case == "appended_flow" and i == 300:
            flows.append(FlowSpec(2, topo_a.sensors[:2], 3, 1.0, deadline))
        if case == "equal_spec" and i % 2:
            flows[0] = dataclasses.replace(flows[0])
            assert flows[0] == seen[-1][2][0] and flows[0] is not seen[-1][2][0]
        topo = topo_b if case == "two_topologies" and i % 3 == 1 else topo_a
        protocol = SR if case == "two_protocols" and i % 3 == 1 else Protocol.REFLEXUP
        if protocol == SR:
            trace = run_baseline(SR, topo, flows, LOSSY, seed=s)
        else:
            trace = run_reflexup(topo, flows, LOSSY, CEC_SMALL, seed=s, p_timeout=0.05)
        setup = sim._PLAN.get().setup
        assert setup.topology is topo and setup.protocol is protocol
        assert len(setup.flows) == len(flows) and all(map(operator.is_, setup.flows, flows))
        seen.append((s, topo, list(flows), protocol, trace))
        return trace

    estimate_pfail(1000, scenario, seed=3)
    assert sim._PLAN.get() is None
    assert len({(id(t), *map(id, f), p) for _, t, f, p, _ in seen}) > 1
    for s, topo, flows_then, protocol, trace in seen:
        if protocol == SR:
            plain = run_baseline(SR, topo, flows_then, LOSSY, seed=s)
        else:
            plain = run_reflexup(topo, flows_then, LOSSY, CEC_SMALL, seed=s, p_timeout=0.05)
        assert trace.events == plain.events, (case, s)
        assert trace.flows == plain.flows, (case, s)
        assert (trace.duration, trace.slots, trace.t_p) == (plain.duration, plain.slots, plain.t_p)


def test_estimate_pfail_keeps_no_set_up():
    topo = relay_topology(2, 1)
    flows = build_flows(topo, 1, deadline=1.0)
    spec = weakref.ref(flows[0])
    shared = []

    def scenario(s):
        trace = run_reflexup(topo, flows, PERFECT, CEC_SMALL, seed=s, record_events=False)
        shared.append(sim._PLAN.get().setup.flows[0] is flows[0])
        return trace

    estimate_pfail(1000, scenario, seed=0)
    assert all(shared) and len(shared) == 1000
    assert sim._PLAN.get() is None
    run_reflexup(topo, flows, PERFECT, CEC_SMALL, seed=0)
    assert sim._PLAN.get() is None  # outside an estimate nothing is kept
    del flows, scenario
    assert spec() is None

    def raising(s):
        run_reflexup(topo, build_flows(topo, 1, deadline=1.0), PERFECT, CEC_SMALL, seed=s)
        raise RuntimeError("scenario fault")

    with pytest.raises(RuntimeError, match="scenario fault"):
        estimate_pfail(1000, raising, seed=0)
    assert sim._PLAN.get() is None


def test_estimate_pfail_leaves_no_seed_plan():
    inside = []

    def scenario(s):
        inside.append(sim._PLAN.get() is not None)
        return _Failing(False)

    estimate_pfail(1000, scenario, seed=0)
    assert all(inside) and len(inside) == 1000
    assert sim._PLAN.get() is None

    def raising(s):
        assert sim._PLAN.get() is not None
        raise RuntimeError("scenario fault")

    with pytest.raises(RuntimeError, match="scenario fault"):
        estimate_pfail(1000, raising, seed=0)
    assert sim._PLAN.get() is None

    # A fault inside the second of three plans leaves none open either.
    base = channel.derive_seed(0)

    def raising_later(s):
        if s == base + 1500:
            assert sim._PLAN.get().start == base + 1024
            raise RuntimeError("scenario fault")
        return _Failing(False)

    with pytest.raises(RuntimeError, match="scenario fault"):
        estimate_pfail(3000, raising_later, seed=0)
    assert sim._PLAN.get() is None


def test_spawn_stream_reads_no_plan_inside_an_estimate():
    # An estimate's plan serves only the runs it sets up: `spawn_stream`,
    # called from a scenario, still builds its stream from a SeedSequence.
    seen = []

    def scenario(s):
        stream = spawn_stream(s, 1, 0)
        seen.append(type(stream.bit_generator.seed_seq) is np.random.SeedSequence)
        assert stream.bit_generator.state == sim._PLAN.get().stream(s, 1, 0).bit_generator.state
        return _Failing(False)

    estimate_pfail(1000, scenario, seed=0)
    assert all(seen) and len(seen) == 1000


Z99 = 2.5758293035489004


def test_lossy_points_match_analytic():
    # Criterion 4's HARQ and Occupy CoW shapes at points where runs do fail.
    # Criterion 4's own HARQ points all have an analytic value of 0, and its
    # Occupy CoW points at 10 and 20 dB 0 and 8.9e-7, so they compare nothing.
    m_bits, runs = 176, 20_000
    chan = ChannelParams(snr_db=-27.0, bandwidth_hz=20e6, rate_bps=200e3)
    ref = harq_pfail(chan, HarqParams(7, 2), 200_000, seed=27)
    assert ref.bound is None and 0.005 < ref.value < 0.02
    star1 = star_topology(1)
    flows = [FlowSpec(0, star1.sensors, 1, 1.0, deadline=10.0)]
    p_hat, _ = estimate_pfail(
        runs,
        lambda s: run_baseline(HQ, star1, flows, chan, seed=s, harq=HarqParams(7, 2), record_events=False),
        seed=127,
    )
    # The reference is itself a Monte-Carlo estimate: widen by its own error.
    band = Z99 * math.sqrt(ref.value * (1.0 - ref.value) / runs) + Z99 * ref.stderr
    assert abs(p_hat - ref.value) <= band, (p_hat, ref)

    n, t1, t2, runs = 6, 5e-6, 2.5e-6, 10_000
    chan = chan.with_snr(25.0)
    probs = occupycow_phase_probs(NetworkShape(n + 1, n, 1, float(n), m_bits), chan, t1, t2)
    analytic = occupycow_pfail(n, probs)
    assert 0.03 < analytic < 0.05 and probs.p1**n > 0.9  # most rounds are void
    star = star_topology(n)
    flows = [FlowSpec(i, (f"v{i+1}",), 1, 1.0, deadline=1.0) for i in range(n)]
    p_hat, _ = estimate_pfail(
        runs,
        lambda s: run_baseline(OC, star, flows, chan, seed=s, oc_t1=t1, oc_t2=t2, record_events=False),
        seed=225,
    )
    assert abs(p_hat - analytic) <= Z99 * math.sqrt(analytic * (1.0 - analytic) / runs), p_hat


# ------------------------------------------------------------------- exports


def test_trace_export_schema(tmp_path):
    topo, flows = _reflexup_setup(n_sensors=4, n_relays=2, n_tasks=2)
    trace = run_reflexup(topo, flows, PERFECT, CEC_SMALL, seed=7, t_cp=0.005)
    path = tmp_path / "trace.csv"
    export_trace(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == TRACE_HEADER
    assert len(lines) == len(trace.events) + 1
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 7
        int(fields[0])  # slot parses


# ----------------------------------------------------------------- topology


def test_topology_validation():
    with pytest.raises(ValueError):
        relay_topology(0, 1)
    topo = relay_topology(5, 2)
    assert "v1" in topo.members["s1"]
    assert set(topo.relays) == {"s1", "s2"}
    with pytest.raises(ValueError):
        run_reflexup(star_topology(3), build_flows(star_topology(3), 1, deadline=1.0), PERFECT, CEC_SMALL, seed=0)
    # A repeated sensor name was accepted on a star, and its packets shared one stream.
    with pytest.raises(ValueError, match="distinct"):
        sim.Topology(members={}, sensors=("v1", "v1"))
    with pytest.raises(ValueError):
        sim.Topology(members={"s1": ("v1",), "s2": ("v1",)}, sensors=("v1",))
    # A sensor named "C" was accepted, and its SR trace reported a ("C", "C") link.
    for name in (sim.CONTROLLER, sim.EDGE, sim.FLOOD):
        with pytest.raises(ValueError, match="reserved"):
            sim.Topology(members={}, sensors=(name, "v2"))
        with pytest.raises(ValueError, match="reserved"):
            sim.Topology(members={name: ("v1",)}, sensors=("v1",))


def test_topology_is_read_only():
    # A member map changed in place skipped the partition check, and inside an
    # estimate the reused set-up kept replaying the old relay schedules.
    # A sensor list changed in place made an estimate's runs fail with a KeyError.
    groups, sensors = {"s1": ["v1", "v2"], "s2": ["v3"]}, ["v1", "v2", "v3"]
    topo = sim.Topology(members=groups, sensors=sensors)
    groups["s1"].append("v3")
    del groups["s2"]
    sensors.append(sim.CONTROLLER)
    assert dict(topo.members) == {"s1": ("v1", "v2"), "s2": ("v3",)}
    assert topo.sensors == ("v1", "v2", "v3")
    with pytest.raises(TypeError):
        topo.members["s2"] = ("v1", "v2", "v3")
    with pytest.raises(TypeError):
        del topo.members["s1"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        topo.members = {}
    # Equal to the same map given as a plain dict of lists, and it replays as before.
    relay = relay_topology(10, 2)
    plain = sim.Topology(members={r: list(g) for r, g in relay.members.items()}, sensors=relay.sensors)
    assert plain == relay and star_topology(3).members == {}
    flows = build_flows(relay, 2, deadline=1e-3)
    a = run_reflexup(relay, flows, LOSSY, CEC_SMALL, seed=7, p_timeout=0.01)
    b = run_reflexup(plain, flows, LOSSY, CEC_SMALL, seed=7, p_timeout=0.01)
    assert a.events and a.events == b.events and a.flows == b.flows


def test_flow_validation():
    with pytest.raises(ValueError):
        FlowSpec(task_id=0, sources=("v1",), packets_required=0, epsilon=1.0, deadline=1.0)
    # A fractional packet count failed with a TypeError partway through a run.
    with pytest.raises(ValueError, match="integer"):
        FlowSpec(task_id=0, sources=("v1",), packets_required=2.5, epsilon=1.0, deadline=1.0)
    assert FlowSpec(task_id=0, sources=("v1",), packets_required=np.int64(2), epsilon=1.0, deadline=1.0)
    # A fractional task id ran and exported as "1.5"; mixing 0 and "a" made
    # measure_cec fail with a TypeError from sorting the task ids.
    for task_id in (1.5, "a", None):
        with pytest.raises(ValueError, match="task_id must be an integer"):
            FlowSpec(task_id=task_id, sources=("v1",), packets_required=1, epsilon=1.0, deadline=1.0)
    assert FlowSpec(task_id=np.int64(3), sources=("v1",), packets_required=1, epsilon=1.0, deadline=1.0)
    with pytest.raises(ValueError):
        FlowSpec(task_id=0, sources=("v1",), packets_required=1, epsilon=0.0, deadline=1.0)
    with pytest.raises(ValueError):
        FlowSpec(task_id=0, sources=(), packets_required=1, epsilon=1.0, deadline=1.0)
    for deadline in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            FlowSpec(task_id=0, sources=("v1",), packets_required=1, epsilon=1.0, deadline=deadline)


def test_runs_reject_malformed_flows():
    relays, star = relay_topology(4, 2), star_topology(4)
    runners = {
        "reflexup": lambda topo, flows: run_reflexup(topo, flows, LOSSY, CEC_SMALL, seed=0),
        "sr": lambda topo, flows: run_baseline(SR, topo, flows, LOSSY, seed=0),
        "harq": lambda topo, flows: run_baseline(HQ, topo, flows, LOSSY, seed=0),
    }
    for name, run in runners.items():
        topo = relays if name == "reflexup" else star
        # Two flows under one task id were merged, so a task could report
        # more packets delivered than it required.
        twins = [FlowSpec(task_id=0, sources=("v1",), packets_required=1, epsilon=1.0, deadline=1.0)] * 2
        with pytest.raises(ValueError, match="distinct task ids"):
            run(topo, twins)
        # A source outside the topology failed with a KeyError mid-run.
        stray = [FlowSpec(task_id=0, sources=("v1", "v99"), packets_required=2, epsilon=1.0, deadline=1.0)]
        with pytest.raises(ValueError, match="v99"):
            run(topo, stray)
        # SR and HARQ failed on an empty flow list with "max() arg is an empty sequence".
        with pytest.raises(ValueError, match="at least one flow"):
            run(topo, [])
    with pytest.raises(ValueError, match="distinct task ids"):
        run_baseline(OC, star_topology(2), [_oc_flows(2, deadline=1.0)[0]] * 2, LOSSY, seed=0)
    stray = [
        FlowSpec(task_id=i, sources=(s,), packets_required=1, epsilon=1.0, deadline=1.0)
        for i, s in enumerate(("v1", "v99"))
    ]
    with pytest.raises(ValueError, match="v99"):
        run_baseline(OC, star_topology(2), stray, LOSSY, seed=0)
    # Two flows from one node ran as two cooperating nodes, of which one sent.
    shared = [FlowSpec(task_id=i, sources=("v1",), packets_required=1, epsilon=1.0, deadline=1.0) for i in range(2)]
    with pytest.raises(ValueError, match="v1"):
        run_baseline(OC, star_topology(2), shared, LOSSY, seed=0)


def test_epsilon_below_one_dispatches_early():
    topo = relay_topology(4, 1)
    flows = [FlowSpec(task_id=0, sources=topo.sensors, packets_required=4, epsilon=0.5, deadline=100.0)]
    trace = run_reflexup(topo, flows, PERFECT, CEC_SMALL, seed=0, t_cp=0.005)
    out = trace.flows[0]
    assert out.dispatched
    assert not out.communication_failure
    # The second of four acks (slots 5-8) reaches epsilon; the rest of phase 2 still runs.
    assert [e.slot for e in trace.events if e.event_type == "fdd-dispatch"] == [6]
    assert out.completion_time == pytest.approx(6 * 176 / PERFECT.rate_bps)


def test_reflexup_dispatches_at_each_flows_last_ack():
    # Phase 1 takes 6 waves; phase 2 forwards relay s1's six packets, then s2's,
    # so each task's last ack comes from s2, at slots 14, 16 and 18.
    topo, flows = _reflexup_setup(n_sensors=4, n_relays=2, n_tasks=3)
    trace = run_reflexup(topo, flows, PERFECT, CEC_SMALL, seed=0, t_cp=0.005)
    dispatches = [(e.slot, e.task_id) for e in trace.events if e.event_type == "fdd-dispatch"]
    assert dispatches == [(14, 0), (16, 1), (18, 2)]
    # Each task's first attempt is 14 slots of 0.88 ms before its dispatch.
    assert [t.t_cm for t in measure_cec(trace, CEC_SMALL, 0.0).per_task] == pytest.approx([12.32e-3] * 3)


def test_occupy_cow_dispatches_each_delivery():
    trace = run_baseline(OC, star_topology(3), _oc_flows(3, deadline=1.0), PERFECT, seed=0)
    assert [e.event_type for e in trace.events] == ["transmit"] * 3 + ["ack", "fdd-dispatch"] * 3
    assert [e.task_id for e in trace.events[3:]] == [0, 0, 1, 1, 2, 2]


@pytest.mark.parametrize("tag", [SR, HQ])
def test_dispatched_flow_reports_no_failure_under_float_rounding(tag):
    # 7 / 25 >= 0.28 holds, while 0.28 * 25 rounds up to 7.000000000000001:
    # a failure rule of delivered < ceil(epsilon * required) disagreed with
    # the dispatch rule here.
    topo = star_topology(25)
    flows = [FlowSpec(task_id=0, sources=topo.sensors, packets_required=25, epsilon=0.28, deadline=10.0)]
    trace = run_baseline(tag, topo, flows, PERFECT, seed=0)
    out = trace.flows[0]
    assert (out.delivered, out.dispatched) == (7, True)
    assert not out.communication_failure


# ------------------------------------------------------- event-count scaling


def test_work_scales_linearly_with_nodes_and_tasks():
    def slots_for(n_tasks, n_sensors, n_relays):
        topo = relay_topology(n_sensors, n_relays)
        flows = build_flows(topo, n_tasks, deadline=1e9)
        tr = run_reflexup(topo, flows, PERFECT, CEC_SMALL, seed=1, t_cp=0.005, record_events=False)
        return tr.slots

    base = slots_for(4, 20, 4)
    assert slots_for(4, 40, 8) == pytest.approx(2 * base, rel=0.1)
    assert slots_for(8, 20, 4) == pytest.approx(2 * base, rel=0.1)


# ------------------------------------------------------------ golden traces
#
# Digests of fixed-seed runs over lossy channels, covering every runner and
# the paths that consume draws differently: timeouts, epsilon < 1, deadline
# skips, bounded repair rounds, HARQ round budgets and diversity orders, and
# Occupy CoW rescue and void rounds. A change to the simulator that moves a
# draw, an event or an outcome field changes the digest. The digests hold for
# the numpy release pinned in CI, because numpy does not promise the same
# Generator streams across versions.
#
# Six digests were re-taken when dispatch moved into delivery: the Occupy CoW
# cases with a delivery (all but occupycow-void) gained their fdd-dispatch
# events and the ("flood", "C") link entry, and reflexup-40db's task 0 now
# dispatches at its last phase-2 ack (slot 25) rather than after the phase
# (slot 30). Every draw, every other event and every other outcome field of
# those runs stayed as it was.

OUTCOME_FIELDS = (
    "task_id", "required", "delivered", "attempts", "losses", "skipped",
    "first_attempt_time", "completion_time", "dispatched", "void_round",
    "communication_failure",
)


def _chan(snr_db, rate_bps=20e6):
    return ChannelParams(snr_db=snr_db, bandwidth_hz=20e6, rate_bps=rate_bps)


def _golden_reflexup(seed, n_sensors, n_relays, n_tasks, chan, epsilon=1.0, deadline=None, **kw):
    topo = relay_topology(n_sensors, n_relays)
    if deadline is None:
        _, deadline = reflexup_plan(CEC_SMALL, 0.005)
    flows = build_flows(topo, n_tasks, deadline=deadline, epsilon=epsilon)
    return run_reflexup(topo, flows, chan, CEC_SMALL, seed=seed, t_cp=0.005, **kw)


def _golden_star(tag, seed, n_sensors, n_tasks, chan, epsilon=1.0, deadline=10.0, **kw):
    topo = star_topology(n_sensors)
    flows = build_flows(topo, n_tasks, deadline=deadline, epsilon=epsilon)
    return run_baseline(tag, topo, flows, chan, seed=seed, **kw)


def _golden_occupy_cow(seed, n, chan, **kw):
    return run_baseline(OC, star_topology(n), _oc_flows(n, deadline=1.0), chan, seed=seed, **kw)


GOLDEN_CASES = {
    "reflexup-lossy-timeout-0": lambda **kw: _golden_reflexup(0, 10, 2, 4, LOSSY, p_timeout=0.01, **kw),
    "reflexup-lossy-timeout-1": lambda **kw: _golden_reflexup(1, 10, 2, 4, LOSSY, p_timeout=0.01, **kw),
    "reflexup-lossy-timeout-2": lambda **kw: _golden_reflexup(2, 10, 2, 4, LOSSY, p_timeout=0.01, **kw),
    "reflexup-eps0.7-local": lambda **kw: _golden_reflexup(
        3, 12, 3, 3, _chan(0, 10e6), epsilon=0.7, chan_local=_chan(10, 22e6), p_timeout=0.01, **kw
    ),
    "reflexup-deadline": lambda **kw: _golden_reflexup(4, 9, 3, 2, _chan(-5, 4e6), deadline=3e-4, **kw),
    "reflexup-max-rounds": lambda **kw: _golden_reflexup(5, 8, 2, 2, _chan(0), max_rounds=1, **kw),
    "reflexup-40db": lambda **kw: _golden_reflexup(6, 10, 2, 2, _chan(40, 200e3), **kw),
    "sr-timeout-0": lambda **kw: _golden_star(SR, 0, 6, 2, _chan(0, 10e6), p_timeout=0.01, **kw),
    "sr-timeout-1": lambda **kw: _golden_star(SR, 1, 6, 2, _chan(0, 10e6), p_timeout=0.01, **kw),
    "sr-eps0.7": lambda **kw: _golden_star(SR, 2, 5, 3, _chan(10), epsilon=0.7, **kw),
    "sr-deadline": lambda **kw: _golden_star(SR, 3, 6, 2, _chan(-5, 4e6), deadline=1e-3, **kw),
    "harq-7-2-0": lambda **kw: _golden_star(HQ, 0, 6, 2, _chan(0), harq=HarqParams(7, 2), **kw),
    "harq-7-2-1": lambda **kw: _golden_star(HQ, 1, 6, 2, _chan(0), harq=HarqParams(7, 2), **kw),
    "harq-3-3": lambda **kw: _golden_star(HQ, 2, 5, 2, _chan(-5, 10e6), harq=HarqParams(3, 3), **kw),
    "harq-eps0.7-deadline": lambda **kw: _golden_star(
        HQ, 3, 6, 2, _chan(-5, 10e6), epsilon=0.7, deadline=2e-4, harq=HarqParams(7, 2), **kw
    ),
    "occupycow-0": lambda **kw: _golden_occupy_cow(0, 5, _chan(10, 60e6), **kw),
    "occupycow-1": lambda **kw: _golden_occupy_cow(1, 5, _chan(10, 60e6), **kw),
    "occupycow-2": lambda **kw: _golden_occupy_cow(2, 5, _chan(10, 60e6), **kw),
    "occupycow-3": lambda **kw: _golden_occupy_cow(3, 5, _chan(10, 60e6), **kw),
    "occupycow-t1t2": lambda **kw: _golden_occupy_cow(11, 6, _chan(-20, 1e6), oc_t1=6e-3, oc_t2=3e-3, **kw),
    "occupycow-void": lambda **kw: _golden_occupy_cow(8, 3, _chan(-20), **kw),
    # Above the per-run stream table's break-even: these runs derive their
    # sensor streams in one pass (ReFlexUp's 8 relays stay below it); the
    # digests were taken when every stream was set up one at a time.
    "reflexup-table": lambda **kw: _golden_reflexup(12, 40, 8, 3, _chan(0, 10e6), p_timeout=0.01, **kw),
    "sr-table": lambda **kw: _golden_star(SR, 12, 24, 2, _chan(0, 10e6), p_timeout=0.01, **kw),
    "harq-7-2-table": lambda **kw: _golden_star(HQ, 12, 24, 2, _chan(0), harq=HarqParams(7, 2), **kw),
}

GOLDEN_DIGESTS = {
    "harq-3-3": "49695b3768e767b997ebf1423527b2b02ca07a08569cd1a66192e11e16e75c7a",
    "harq-7-2-0": "48fcf9718bbf2aa77b6c7dc80e450ee53d33098172fd2b9abe3f7cd3fcdc976a",
    "harq-7-2-1": "5f7245f9b21e0a39d843ae2474e1b8ad403dfe9a86f228f5daf32e822f80ed82",
    "harq-7-2-table": "50bd1b165ad4eac68c1df9738ed6318b33a4f16b29c8fa45fc254b18f7374325",
    "harq-eps0.7-deadline": "8aee9bf2e18f07c5476ef35bc4792f4677bcad0904c42563e1fdc8e16c0a0a12",
    "occupycow-0": "aaad7b233fe79d22ee2d546a8510898aa0ce85b32a4886f38d806f4eb3eb0705",
    "occupycow-1": "ef970c40a76b652e95a6e19b502011b49bea02aecc6f2820328a414f89bdba28",
    "occupycow-2": "b029ab080b1f4852e17f75146d495d1f48e4055886925c528caf811734f5a1f3",
    "occupycow-3": "09e2f9ca1779fab5b5c84c7345aab04d0ee9ea33c7f2cb909d40fd01a63d4ce8",
    "occupycow-t1t2": "71e85c6ace0003868d3b7eb523ae1b9e2c719055370bbada92cf507cfdd0b70c",
    "occupycow-void": "17a931d45ec2b022f17c40f57ab481bc45930b6b70fb5876e0dd83e9e4ac7b51",
    "reflexup-40db": "fb734313ab1dcbda71466d0ce18f9ef2cd16ea37d8e7d83277b88a0e68220179",
    "reflexup-deadline": "e9ae7df1014bf460f44198bf76411b6c0b286de58235f4ad6284e677ea97f9b3",
    "reflexup-eps0.7-local": "33cb6c8237a13708b26e707d8186d7d484d97b32359e40b3a62bb3660aaf0bac",
    "reflexup-lossy-timeout-0": "543de66dd54fa49facebe433686d24a30b77a8b2662cb8de2f2a5881ee855bb4",
    "reflexup-lossy-timeout-1": "a89dd9716ee762a77762ca6b7986f1e667c0691ba8cbd310735c5b5c3918065b",
    "reflexup-lossy-timeout-2": "659c027b4ffd731afdd62f6f6c8056b4d9ae859ab308bb4d198da77a481247fd",
    "reflexup-max-rounds": "1bb6928b5f98627a4a76c23aba93b9d8c135d28ae08bb3a23950b903c9554d9d",
    "reflexup-table": "2d3e79860641b2dfe46e4795f41220a404d8be8afee0c8eed9c5a2fce88e89db",
    "sr-deadline": "f93694d819342b78bc56dca2d652a7f6d2a9ad3f0414f5bca75fcc9b21c4dcdc",
    "sr-eps0.7": "1b2cb218e93305587b55d471a7b1bb8a5ac0325a7515621b301485d54ec40b14",
    "sr-table": "97ae5fc17b5f0b2c681a7371792d3e05c93f5c9634e47aec4c1ac0d1059fd600",
    "sr-timeout-0": "fdedf28a2f3340bcbdb05f05323dabf0c852f18fc039aada381aacf7f04ed621",
    "sr-timeout-1": "5e48db233ad46ef54c6ebb0f95ff69365eb27a057208373b6a17d5658082ed62",
}


def _trace_digest(trace, path) -> str:
    export_trace(trace, path)
    h = hashlib.sha256(path.read_bytes())
    for task in sorted(trace.flows):
        out = trace.flows[task]
        h.update(repr(tuple(getattr(out, f) for f in OUTCOME_FIELDS)).encode())
    h.update(repr((trace.duration, trace.slots, trace.t_p, sorted(trace.link_stats.items()))).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_trace(name, tmp_path):
    assert _trace_digest(GOLDEN_CASES[name](), tmp_path / "trace.csv") == GOLDEN_DIGESTS[name]


def test_unrecorded_golden_runs_match_recorded_ones():
    # Recording only observes: a run without an event log makes the same
    # draws and decisions, and reports no events and no link counts.
    for name, case in sorted(GOLDEN_CASES.items()):
        recorded, unrecorded = case(), case(record_events=False)
        assert unrecorded.events == [] and unrecorded.link_stats == {}, name
        assert recorded.events and recorded.link_stats, name
        for task, out in recorded.flows.items():
            fields = [getattr(out, f) for f in OUTCOME_FIELDS]
            assert [getattr(unrecorded.flows[task], f) for f in OUTCOME_FIELDS] == fields, (name, task)
        summary = (recorded.duration, recorded.slots, recorded.t_p)
        assert (unrecorded.duration, unrecorded.slots, unrecorded.t_p) == summary, name


def _trace_shape_cases():
    """The three protocols of the `trace` benchmark on its shape: 360 sensors, 72 relays, 12 tasks at 0 dB."""
    chan, cec = _chan(0.0, 200e3), CecConfig(n_tasks=12, k_rbs=48, c=1.0, c0=0.05)
    topo = relay_topology(360, 72)
    flows = build_flows(topo, 12, deadline=12 * 360 * 176 / 200e3 * 1.4)
    return {
        "trace-reflexup": lambda: run_reflexup(topo, flows, chan, cec, seed=7, t_cp=0.005),
        "trace-sr": lambda: run_baseline(SR, topo, flows, chan, seed=7),
        "trace-harq": lambda: run_baseline(HQ, topo, flows, chan, seed=7),
    }


def test_events_are_trace_events_and_export_as_the_field_rendering(tmp_path):
    # `_Run` builds events through tuple.__new__, which checks no arity, and
    # export_trace writes them in one %-format pass; the per-field f-string
    # rendering below is the reference for the exported bytes, also for the
    # numpy ints and bools a field may hold.
    numpy_fields = [TraceEvent(np.int64(3), "transmit", "v1", "C", np.int64(2), np.True_, "ok")]
    cases = {**GOLDEN_CASES, **_trace_shape_cases(), "numpy-fields": lambda: SimTrace(SR, numpy_fields, {}, 0.0, 0, 1.0)}
    for name, case in sorted(cases.items()):
        trace = case()
        assert all(type(ev) is TraceEvent and len(ev) == 7 for ev in trace.events), name
        export_trace(trace, tmp_path / "trace.csv")
        reference = TRACE_HEADER + "\n" + "".join(
            f"{ev.slot},{ev.event_type},{ev.src},{ev.dst},{ev.task_id},{ev.packet_id},{ev.outcome}\n"
            for ev in trace.events
        )
        assert (tmp_path / "trace.csv").read_bytes() == reference.encode("utf-8"), name


def test_golden_traces_through_stream_tables(tmp_path, monkeypatch):
    # Every sensor and relay table, however small, from one derivation pass.
    monkeypatch.setattr(sim, "_TABLE_MIN", 1)
    tables = []
    monkeypatch.setattr(sim, "spawn_streams", lambda *a: tables.append(a) or spawn_streams(*a))
    for name, case in sorted(GOLDEN_CASES.items()):
        assert _trace_digest(case(), tmp_path / "trace.csv") == GOLDEN_DIGESTS[name], name
    assert {head for _, head, _ in tables} == {1, 2}


def test_golden_traces_dispatch_at_the_epsilon_ack(monkeypatch):
    # A dispatched task logs one fdd-dispatch, right after the ack that first
    # brings delivered / required to its epsilon and in that ack's slot.
    runs = []

    class Recorded(_Run):
        def __init__(self, *args):
            super().__init__(*args)
            runs.append(self)

    monkeypatch.setattr(sim, "_Run", Recorded)
    for name, case in sorted(GOLDEN_CASES.items()):
        trace = case()
        flows = runs[-1].flows
        for task, out in trace.flows.items():
            indices = [i for i, e in enumerate(trace.events) if e.task_id == task]
            dispatches = [i for i in indices if trace.events[i].event_type == "fdd-dispatch"]
            assert len(dispatches) == out.dispatched, (name, task)
            if not out.dispatched:
                continue
            acks = [i for i in indices if trace.events[i].event_type == "ack"]
            k = next(k for k in range(1, len(acks) + 1) if k / out.required >= flows[task].epsilon)
            assert (k - 1) / out.required < flows[task].epsilon
            assert dispatches == [acks[k - 1] + 1], (name, task)
            assert trace.events[dispatches[0]].slot == trace.events[acks[k - 1]].slot, (name, task)


def test_only_the_run_core_writes_flow_outcomes():
    # Counters, times, the dispatch, void and failure flags and the slot clock
    # have one writer, `_Run`, which also builds every event and alone reads
    # whether the run records.
    fields = {
        "delivered", "attempts", "losses", "skipped", "first_attempt_time",
        "completion_time", "dispatched", "void_round", "communication_failure",
        "slot", "now",
    }
    tree = ast.parse(Path(sim.__file__).read_text(encoding="utf-8"))
    core = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "_Run")
    in_core = {id(n) for n in ast.walk(core)}
    inside, outside = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for t in ast.walk(target):
                if isinstance(t, ast.Attribute) and t.attr in fields:
                    if id(node) in in_core:
                        inside.add(t.attr)
                    else:
                        outside.append((node.lineno, t.attr))
    assert outside == []
    assert inside == fields
    # An event is built as `TraceEvent(...)` or, on the fast path, as
    # `tuple.__new__(TraceEvent, ...)` through an alias: a call whose first
    # argument is the class.
    events = [
        n for n in ast.walk(tree)
        if isinstance(n, ast.Call) and (
            (isinstance(n.func, ast.Name) and n.func.id == "TraceEvent")
            or (n.args and isinstance(n.args[0], ast.Name) and n.args[0].id == "TraceEvent")
        )
    ]
    assert events and all(id(n) in in_core for n in events)
    record_tests = [
        n.lineno for n in ast.walk(tree)
        if isinstance(n, (ast.If, ast.IfExp)) and id(n) not in in_core
        and any(getattr(t, "id", getattr(t, "attr", None)) in ("record", "record_events") for t in ast.walk(n.test))
    ]
    assert record_tests == []


def test_only_the_simulator_creates_a_context_variable():
    # Which runs of an estimate share derived state is decided in `sim` alone:
    # it creates the package's only ContextVar, and `channel` opens no scope.
    found = {}
    for path in sorted(Path(sim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found[path.name] = sum(
            isinstance(n, ast.Call) and getattr(n.func, "id", getattr(n.func, "attr", None)) == "ContextVar"
            for n in ast.walk(tree)
        )
    assert {name: n for name, n in found.items() if n} == {"sim.py": 1}
    assert "contextmanager" not in Path(channel.__file__).read_text(encoding="utf-8")


def test_every_faded_hop_goes_through_one_test():
    # Every faded hop is decided by `_attempt_test`'s math.log2, and HARQ's
    # round information comes from `protocols`: no other log2 in the simulator.
    tree = ast.parse(Path(sim.__file__).read_text(encoding="utf-8"))
    hop_test = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_attempt_test")
    logs = [
        n for n in ast.walk(tree)
        if isinstance(n, ast.Call) and "log2" in (getattr(n.func, "attr", None), getattr(n.func, "id", None))
    ]
    assert len(logs) == 1 and ast.unparse(logs[0].func) == "math.log2"
    assert logs[0] in list(ast.walk(hop_test))


@settings(max_examples=300, deadline=None)
@given(
    log_w=st.floats(3.0, 8.0),
    snr_db=st.floats(-40.0, 60.0),
    log_ratio=st.floats(-3.0, math.log10(30.0)),
    fade=st.floats(0.0, 100.0),
    ulps=st.integers(-50, 50),
)
def test_hop_test_is_the_capacity_test(log_w, snr_db, log_ratio, fade, ulps):
    # W in 1e3-1e8 Hz, snr in -40-60 dB and R/W in 1e-3-30; fades drawn at
    # random and within 50 ulps of the outage threshold (2^(R/W) - 1)/snr.
    w = 10.0**log_w
    chan = ChannelParams(snr_db, w, 10.0**log_ratio * w)
    near = math.expm1(chan.spectral_efficiency * math.log(2.0)) / chan.snr_linear
    for _ in range(abs(ulps)):
        near = math.nextafter(near, math.copysign(math.inf, ulps))
    hop_ok = _attempt_test(chan, chan.rate_bps)
    for h in (fade, near):
        assert hop_ok(iter([h])) == (link_capacity_bps(chan, h) >= chan.rate_bps)


def test_block_draws_equal_scalar_draws():
    # The simulator reads each stream in blocks; values, order and the
    # generator state after them match the same draws taken one at a time.
    draw_kinds = ((_fades, lambda g: g.exponential(1.0)), (_uniforms, lambda g: g.random()))
    one_flow = [FlowSpec(task_id=0, sources=("v1",), packets_required=1, epsilon=1.0, deadline=1.0)]
    for seed in range(200):
        n = 1 + seed % 17
        for take, scalar in draw_kinds:
            a, b = spawn_stream(seed, 1, 3), spawn_stream(seed, 1, 3)
            assert take(a, n) == [scalar(b) for _ in range(n)]
            assert a.bit_generator.state == b.bit_generator.state
            # Through the run's draw source, across two block refills.
            draws = _Run(SR, one_flow, False, seed, star_topology(1)).draws(take, n, 1, 3)
            ref = spawn_stream(seed, 1, 3)
            assert [next(draws) for _ in range(3 * n)] == [scalar(ref) for _ in range(3 * n)]


@pytest.mark.parametrize("diversity", [1, 2, 3, 4, 5, 6, 7, 8, 9, 16])
def test_harq_block_metric_equals_per_round_mean(diversity):
    # The shared round kernel, on (rounds, L) and (trials, Q, L) blocks, is
    # bit for bit the mean over each round's L branches.
    snr = _chan(3.0).snr_linear
    rounds = 2500
    fades = spawn_stream(diversity, 1, 0).exponential(1.0, size=(rounds, diversity))
    info = np.log2(1.0 + snr * fades)
    per_round = [float(np.log2(1.0 + snr * row).mean()) for row in fades]
    assert info.mean(axis=-1).tolist() == per_round
    assert _round_information(spawn_stream(diversity, 1, 0), snr, (rounds, diversity)).tolist() == per_round
    shaped = _round_information(spawn_stream(diversity, 1, 0), snr, (rounds // 5, 5, diversity))
    assert np.array_equal(shaped, info.mean(axis=-1).reshape(rounds // 5, 5))
