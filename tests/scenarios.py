"""Criterion 4's four simulator shapes, written once for every test that replays them.

`channel_at(protocol, snr)` is a shape's channel and `scenario(protocol, chan)` its
`run(seed)`, whose runs share one set-up per plan; `cecbench_frames` counts the frames
of the frame census and of criterion 8's counted work.
"""
import sys
from pathlib import Path

from cecbench import sim
from cecbench.cec import CecConfig
from cecbench.channel import ChannelParams
from cecbench.protocols import HarqParams, NetworkShape, Protocol
from cecbench.sim import FlowSpec, relay_topology, run_baseline, run_reflexup, star_topology

Z99 = 2.5758293035489004  # two-sided 99% normal quantile
SNR_POINTS = (10.0, 20.0, 30.0, 40.0, 60.0)  # criterion 4's SNRs, in dB: 20 channels over the four shapes
M_BITS = 176
TABLE_CHAN = ChannelParams(snr_db=40, bandwidth_hz=20e6, rate_bps=200e3)
P_TIMEOUT = 1e-4
HARQ = HarqParams(7, 2)
OC_NODES, OC_T1, OC_T2 = 6, 5e-6, 2.5e-6
OC_SHAPE = NetworkShape(OC_NODES + 1, OC_NODES, 1, float(OC_NODES), M_BITS)
RFU_T_VS = 1e-5
RFU_SHAPE = NetworkShape(2, 1, 1, 1.0, M_BITS)
RFU_CEC = CecConfig(n_tasks=1, k_rbs=4, c=1.0, c0=0.05)
RFU_T_CP = 0.005
# A sensor's packet and its relay's forward share one session.
SESSION_RATE = M_BITS * (RFU_SHAPE.relay_fanout + 1) / RFU_T_VS


def channel_at(protocol: Protocol, snr: float) -> ChannelParams:
    """The shape's channel at `snr` dB: the table channel, or ReFlexUp's session-rate channel."""
    if protocol is Protocol.REFLEXUP:
        return ChannelParams(snr_db=snr, bandwidth_hz=TABLE_CHAN.bandwidth_hz, rate_bps=SESSION_RATE)
    return TABLE_CHAN.with_snr(snr)


def scenario(protocol: Protocol, chan: ChannelParams, record_events: bool = False, deadline_slots: float | None = None):
    """`run(seed)` of the protocol's shape on `chan`. Its topology and flows are built here,
    once, and its other arguments are `chan` and module constants, so that every run passes
    the very objects of the run before it and an estimate builds one set-up per plan: the
    memo matches each argument by identity. `deadline_slots` sets a Selective Repeat or
    ReFlexUp deadline in slots of `chan`; criterion 4's are 1.5 and 2.4."""
    slot = M_BITS / chan.rate_bps
    if protocol is Protocol.REFLEXUP:
        topo = relay_topology(1, 1)
        flows = [FlowSpec(0, topo.sensors, 1, 1.0, deadline=(deadline_slots or 2.4) * slot)]
        return lambda s: run_reflexup(
            topo, flows, chan, RFU_CEC, seed=s, t_cp=RFU_T_CP, p_timeout=P_TIMEOUT, record_events=record_events
        )
    if protocol is Protocol.OCCUPY_COW:
        topo = star_topology(OC_NODES)
        flows = [FlowSpec(i, (f"v{i+1}",), 1, 1.0, deadline=1.0) for i in range(OC_NODES)]
        kw = {"oc_t1": OC_T1, "oc_t2": OC_T2}
    else:
        topo = star_topology(1)
        deadline = (deadline_slots or 1.5) * slot if protocol is Protocol.SELECTIVE_REPEAT_ARQ else 10.0
        flows = [FlowSpec(0, topo.sensors, 1, 1.0, deadline=deadline)]
        kw = {"p_timeout": P_TIMEOUT} if protocol is Protocol.SELECTIVE_REPEAT_ARQ else {"harq": HARQ}
    return lambda s: run_baseline(protocol, topo, flows, chan, seed=s, record_events=record_events, **kw)


_PACKAGE = str(Path(sim.__file__).parent)


def cecbench_frames(call):
    """`call()`'s result, and the Python frames it entered in cecbench code (profiler `call`
    events). A frame is in cecbench code when its code file is, or when its globals are a
    cecbench module's, as for the __init__, __eq__ and __hash__ that dataclasses generate."""
    frames = 0

    def count(frame, event, arg):
        nonlocal frames
        if event == "call" and (
            frame.f_code.co_filename.startswith(_PACKAGE) or frame.f_globals.get("__name__", "").startswith("cecbench")
        ):
            frames += 1

    sys.setprofile(count)
    try:
        result = call()
    finally:
        sys.setprofile(None)
    return result, frames
