"""The simulator's exact law (`exact.exact_law`) against the closed forms.

The law enumerates every flag of a run, so it carries no sampling noise: it
must equal each closed form within 1e-12 relative, on criterion 4's shapes.
The simulator derives Occupy CoW's rescue from its own phase thresholds, so
a wrong p12 in `protocols` shows here. Selective Repeat is also held to its
closed form across retransmission rounds; ReFlexUp's repair rounds have no
closed form, so there the sampler, `estimate_pfail`, is held to the law.
"""
import math

import pytest

from cecbench import sim
from cecbench.channel import outage_probability
from cecbench.protocols import (
    Protocol,
    occupycow_pfail,
    occupycow_phase_probs,
    occupycow_void_probability,
    reflexup_pfail,
    srarq_pfail,
)
from cecbench.sim import FlowSpec, estimate_pfail, run_baseline, star_topology
from exact import exact_law
from scenarios import M_BITS, OC_NODES, OC_SHAPE, OC_T1, OC_T2, P_TIMEOUT, RFU_SHAPE, RFU_T_VS, SNR_POINTS, channel_at, scenario

SR, OC, RFU = Protocol.SELECTIVE_REPEAT_ARQ, Protocol.OCCUPY_COW, Protocol.REFLEXUP

CLOSED_FORMS = {
    SR: lambda chan: srarq_pfail(P_TIMEOUT, outage_probability(chan)),
    OC: lambda chan: occupycow_pfail(OC_NODES, occupycow_phase_probs(OC_SHAPE, chan, OC_T1, OC_T2)),
    RFU: lambda chan: reflexup_pfail(RFU_SHAPE, chan, t_vs=RFU_T_VS, p_timeout=P_TIMEOUT),
}
# Criterion 4's 15 non-HARQ points, and a lossy Selective Repeat point.
POINTS = [(protocol, snr) for protocol in CLOSED_FORMS for snr in SNR_POINTS] + [(SR, -20.0)]


@pytest.mark.parametrize("protocol, snr", POINTS, ids=lambda v: v.value if isinstance(v, Protocol) else f"{v:g}db")
def test_exact_law_equals_the_closed_forms(protocol, snr):
    # Criterion 4's Selective Repeat deadline admits one attempt and ReFlexUp's one per
    # hop, so each fails like its closed form; Occupy CoW's law leaves its void stratum
    # out of the failure, as `occupycow_pfail` does, and holds it as p1^n.
    chan = channel_at(protocol, snr)
    law = exact_law(scenario(protocol, chan))
    assert law.failure == pytest.approx(CLOSED_FORMS[protocol](chan), rel=1e-12, abs=0.0)
    if protocol is OC:
        void = occupycow_void_probability(OC_NODES, occupycow_phase_probs(OC_SHAPE, chan, OC_T1, OC_T2))
        assert law.void == pytest.approx(void, rel=1e-12, abs=0.0)
    else:
        assert law.void == 0.0
    assert math.isfinite(law.duration) and law.duration > 0.0


def test_exact_law_refuses_a_tree_beyond_its_leaf_cap():
    # Occupy CoW's six nodes at 40 dB make a tree of hundreds of leaves; the readers
    # are restored however the enumeration ends.
    readers = sim._Run.passes, sim._Run.fires
    run = scenario(OC, channel_at(OC, 40.0))
    with pytest.raises(ValueError, match="more than 100 leaves"):
        exact_law(run, max_leaves=100)
    assert (sim._Run.passes, sim._Run.fires) == readers
    assert exact_law(scenario(SR, channel_at(SR, 40.0))).leaves == 3


@pytest.mark.parametrize("attempts", [2, 3, 4])
@pytest.mark.parametrize("snr", [-20.0, 0.0, 10.0], ids=lambda v: f"{v:g}db")
def test_selective_repeat_fails_like_its_closed_form_across_rounds(attempts, snr):
    # A deadline of k + 1/2 slots admits k attempts of the one packet, as each lost
    # attempt takes one slot, and each is a fresh hop: the run fails when all k fail.
    chan = channel_at(SR, snr)
    topo = star_topology(1)
    flows = [FlowSpec(0, topo.sensors, 1, 1.0, deadline=(attempts + 0.5) * M_BITS / chan.rate_bps)]
    law = exact_law(lambda s: run_baseline(SR, topo, flows, chan, seed=s, p_timeout=P_TIMEOUT, record_events=False))
    closed_form = srarq_pfail(P_TIMEOUT, outage_probability(chan)) ** attempts
    assert law.failure == pytest.approx(closed_form, rel=1e-12, abs=0.0)
    assert law.void == 0.0 and law.leaves <= 31


# Runs and seed fixed before any estimate was looked at; a point outside its interval is a
# finding to record, not a seed to change.
SAMPLER_RUNS, SAMPLER_SEED = 2000, 38
# (protocol, SNR in dB, deadline in slots): Selective Repeat's three attempts at -20 dB,
# Occupy CoW's criterion-4 shape, and ReFlexUp deadlines that admit repair rounds.
SAMPLER_POINTS = [(SR, -20.0, 3.5), (OC, 40.0, None)] + [(RFU, snr, slots) for slots in (4.4, 6.4) for snr in (0.0, 5.0, 10.0)]


@pytest.mark.parametrize("protocol, snr, slots", SAMPLER_POINTS, ids=lambda v: v.value if isinstance(v, Protocol) else f"{v}")
def test_the_sampler_lies_within_its_interval_of_the_exact_law(protocol, snr, slots):
    run = scenario(protocol, channel_at(protocol, snr), deadline_slots=slots)
    p, ci99 = estimate_pfail(SAMPLER_RUNS, run, seed=SAMPLER_SEED)
    assert abs(p - exact_law(run).failure) <= ci99
