"""Time-slotted execution of the uplink protocols over sampled Rayleigh links.

One run owns its event queue and RNG streams (split per link from the master
seed), so identical seeds replay bit-identical traces. Time advances in
packet-airtime slots per link rate; control messages on the C-M link are
error-free and instantaneous, and relay queuing plus feedback latency default
to zero.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, NamedTuple

import numpy as np
from scipy.special import ndtri

from .cec import (
    CecConfig,
    PerTaskUtilization,
    ScheduleResult,
    compute_uc,
    compute_ucc,
    optimal_tcm_case3,
)
from .channel import ChannelParams, link_capacity_bps, spawn_stream
from .protocols import HarqParams, NetworkShape, Protocol, occupycow_phase_probs

__all__ = [
    "EVENT_TYPES",
    "TraceEvent",
    "Topology",
    "FlowSpec",
    "FlowOutcome",
    "SimTrace",
    "star_topology",
    "relay_topology",
    "build_flows",
    "reflexup_plan",
    "run_reflexup",
    "run_baseline",
    "measure_cec",
    "estimate_pfail",
    "export_trace",
    "TRACE_HEADER",
]

EVENT_TYPES = ("transmit", "ack", "nack", "relay-cache", "retransmit", "fdd-dispatch")
TRACE_HEADER = "slot,event_type,src,dst,task_id,packet_id,outcome"


class TraceEvent(NamedTuple):
    slot: int
    event_type: str
    src: str
    dst: str
    task_id: int
    packet_id: int
    outcome: str


@dataclass(frozen=True)
class Topology:
    """Field network: relays with disjoint member-sensor sets, or a plain star.

    An empty member map is the star fallback where sensors reach the
    controller directly.
    """

    members: Mapping[str, tuple[str, ...]]
    sensors: tuple[str, ...]
    c_to_m_latency: float = 0.0
    controller: str = "C"
    edge_server: str = "M"

    def __post_init__(self) -> None:
        assigned: list[str] = []
        for relay, group in self.members.items():
            if relay in self.sensors:
                raise ValueError(f"node {relay} cannot be both relay and sensor")
            assigned.extend(group)
        if self.members:
            if sorted(assigned) != sorted(self.sensors):
                raise ValueError("relay member sets must partition the sensor set")
            if len(assigned) != len(set(assigned)):
                raise ValueError("a sensor belongs to more than one relay")
        if self.c_to_m_latency < 0:
            raise ValueError("c_to_m_latency must be >= 0")

    @property
    def relays(self) -> tuple[str, ...]:
        return tuple(self.members)

    def relay_of(self, sensor: str) -> str:
        for relay, group in self.members.items():
            if sensor in group:
                return relay
        raise KeyError(sensor)


def star_topology(n_sensors: int, c_to_m_latency: float = 0.0) -> Topology:
    """Sensors talk to the controller directly (model II)."""
    sensors = tuple(f"v{i+1}" for i in range(n_sensors))
    return Topology(members={}, sensors=sensors, c_to_m_latency=c_to_m_latency)


def relay_topology(
    n_sensors: int, n_relays: int, c_to_m_latency: float = 0.0
) -> Topology:
    """Round-robin sensor membership over relays (model III); sizes differ by <= 1."""
    if n_relays < 1 or n_sensors < 1:
        raise ValueError("need at least one relay and one sensor")
    sensors = tuple(f"v{i+1}" for i in range(n_sensors))
    groups: dict[str, list[str]] = {f"s{i+1}": [] for i in range(n_relays)}
    for i, sensor in enumerate(sensors):
        groups[f"s{i % n_relays + 1}"].append(sensor)
    return Topology(
        members={r: tuple(g) for r, g in groups.items()},
        sensors=sensors,
        c_to_m_latency=c_to_m_latency,
    )


@dataclass(frozen=True)
class FlowSpec:
    """Data requirement of one task: packet count, reliability level, slot budget."""

    task_id: int
    sources: tuple[str, ...]
    packets_required: int
    epsilon: float
    deadline: float

    def __post_init__(self) -> None:
        if self.packets_required < 1:
            raise ValueError("packets_required must be >= 1")
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in (0, 1]")
        if self.deadline <= 0:
            raise ValueError("deadline must be > 0")
        if not self.sources:
            raise ValueError("a flow needs at least one source sensor")


def build_flows(
    topology: Topology,
    n_tasks: int,
    deadline: float,
    epsilon: float = 1.0,
    packets_per_task: int | None = None,
) -> list[FlowSpec]:
    """One flow per task, sourced round-robin over all sensors.

    By default every sensor contributes one packet per task, which matches
    the per-cycle traffic the relay-session arithmetic assumes.
    """
    packets = packets_per_task if packets_per_task is not None else len(topology.sensors)
    return [
        FlowSpec(
            task_id=i,
            sources=topology.sensors,
            packets_required=packets,
            epsilon=epsilon,
            deadline=deadline,
        )
        for i in range(n_tasks)
    ]


@dataclass
class FlowOutcome:
    task_id: int
    required: int
    delivered: int = 0
    attempts: int = 0
    losses: int = 0
    skipped: int = 0  # attempts never made because the deadline had passed
    first_attempt_time: float | None = None
    completion_time: float | None = None
    dispatched: bool = False
    void_round: bool = False  # excluded stratum (no relay survived phase 1)
    communication_failure: bool = False
    task_failure: bool = False


@dataclass
class SimTrace:
    """Event log plus per-flow outcome summary of one protocol run."""

    protocol: Protocol
    events: list[TraceEvent]
    flows: dict[int, FlowOutcome]
    duration: float
    slots: int
    t_p: float
    link_stats: dict[tuple[str, str], list[int]] = field(default_factory=dict)

    @property
    def any_communication_failure(self) -> bool:
        return any(f.communication_failure for f in self.flows.values())


def export_trace(trace: SimTrace, path) -> None:
    """Write the event log as line-delimited records under the stable schema."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(TRACE_HEADER + "\n")
        for ev in trace.events:
            fh.write(
                f"{ev.slot},{ev.event_type},{ev.src},{ev.dst},"
                f"{ev.task_id},{ev.packet_id},{ev.outcome}\n"
            )


class _Run:
    """Shared bookkeeping for one simulation run."""

    def __init__(self, protocol: Protocol, flows: Iterable[FlowSpec], record: bool):
        self.protocol = protocol
        self.record = record
        self.events: list[TraceEvent] = []
        self.flows = {f.task_id: f for f in flows}
        self.outcomes = {
            f.task_id: FlowOutcome(task_id=f.task_id, required=f.packets_required)
            for f in self.flows.values()
        }
        self.link_stats: dict[tuple[str, str], list[int]] = {}
        self.now = 0.0
        self.slot = 0

    def log(self, event_type: str, src: str, dst: str, task: int, packet: int, outcome: str):
        if self.record:
            self.events.append(TraceEvent(self.slot, event_type, src, dst, task, packet, outcome))

    def link_attempt(self, src: str, dst: str, ok: bool) -> None:
        entry = self.link_stats.setdefault((src, dst), [0, 0])
        entry[0] += 1
        if not ok:
            entry[1] += 1

    def finalize(self, t_p: float) -> SimTrace:
        for spec in self.flows.values():
            out = self.outcomes[spec.task_id]
            fraction = out.delivered / out.required
            out.communication_failure = (not out.void_round) and fraction < spec.epsilon
            needed = math.ceil(spec.epsilon * out.required)
            out.task_failure = (not out.void_round) and out.delivered < needed
        return SimTrace(
            protocol=self.protocol,
            events=self.events,
            flows=self.outcomes,
            duration=self.now,
            slots=self.slot,
            t_p=t_p,
            link_stats=self.link_stats,
        )


def _packet_layout(flows: Iterable[FlowSpec]) -> list[tuple[int, int, str]]:
    """Assign each (task, packet) its source sensor, round-robin over sources."""
    layout = []
    for spec in flows:
        for p in range(spec.packets_required):
            layout.append((spec.task_id, p, spec.sources[p % len(spec.sources)]))
    return layout


def _fade_ok(rng: np.random.Generator, chan: ChannelParams) -> bool:
    """One Rayleigh attempt: True when the sampled capacity carries the rate."""
    return link_capacity_bps(chan, float(rng.exponential(1.0))) >= chan.rate_bps


def reflexup_plan(cec: CecConfig, t_cp: float) -> tuple[float, float]:
    """Edge-side parameter calculation: target window and padded slot length."""
    target = optimal_tcm_case3(t_cp, cec)
    return target, cec.n_tasks * cec.c0 + target


def run_reflexup(
    topology: Topology,
    flows: list[FlowSpec],
    chan: ChannelParams,
    cec: CecConfig,
    seed: int,
    t_cp: float = 0.005,
    packet_bits: int = 176,
    chan_local: ChannelParams | None = None,
    p_timeout: float = 0.0,
    max_rounds: int | None = None,
    record_events: bool = True,
) -> SimTrace:
    """Execute the two-phase edge-driven protocol over one padded slot.

    Sequence per iteration: relays report their flow counts to the edge
    server, which derives the slot parameters and the target window from the
    padded-slot optimum and informs the relays; each relay schedules its
    member sensors; sensors transmit per packet to their relay (relay caches
    on success), relays forward to the controller; whenever a flow's
    delivered fraction is still below its epsilon the edge sends the
    missing-packet list back and the relay re-sends each missing packet
    bundled with the previously cached one (double airtime). Flows dispatch
    as soon as the fraction reaches epsilon; a flow whose deadline passes
    first is marked as a communication failure without disturbing the rest.
    """
    if not flows:
        raise ValueError("need at least one flow")
    if not topology.members:
        raise ValueError("the two-phase protocol needs a relay topology")
    local = chan_local if chan_local is not None else chan
    run = _Run(Protocol.REFLEXUP, flows, record_events)
    timeout_rng = spawn_stream(seed, 3)
    local_rngs = {s: spawn_stream(seed, 1, i) for i, s in enumerate(topology.sensors)}
    up_rngs = {r: spawn_stream(seed, 2, i) for i, r in enumerate(topology.relays)}

    slot_local = packet_bits / local.rate_bps
    slot_up = packet_bits / chan.rate_bps

    # Parameter calculation at the edge: reports in, window/slot out. The
    # per-flow deadlines carry the slot budget; t_p is kept on the trace.
    _, t_p = reflexup_plan(cec, t_cp)
    for relay in topology.relays:
        run.log("transmit", relay, topology.edge_server, -1, -1, "report")
    for relay in topology.relays:
        run.log("transmit", topology.edge_server, relay, -1, -1, "inform")

    layout = _packet_layout(flows)
    specs = run.flows
    relay_of = {s: r for r, group in topology.members.items() for s in group}
    delivered: set[tuple[int, int]] = set()
    cached: set[tuple[int, int]] = set()

    def lost(rng: np.random.Generator, link: ChannelParams) -> bool:
        timed_out = p_timeout > 0 and timeout_rng.random() < p_timeout
        return timed_out or not _fade_ok(rng, link)

    def expired(task: int, duration: float) -> bool:
        return run.now + duration > specs[task].deadline

    def note_attempt(task: int) -> None:
        out = run.outcomes[task]
        out.attempts += 1
        if out.first_attempt_time is None:
            out.first_attempt_time = run.now

    # Phase 1: relays run parallel sessions; one wave = one local slot.
    schedules: dict[str, list[tuple[int, int, str]]] = {r: [] for r in topology.relays}
    for entry in layout:
        schedules[relay_of[entry[2]]].append(entry)
    waves = max((len(s) for s in schedules.values()), default=0)
    for wave in range(waves):
        for relay in topology.relays:
            sched = schedules[relay]
            if wave >= len(sched):
                continue
            task, packet, sensor = sched[wave]
            if expired(task, slot_local):
                run.outcomes[task].skipped += 1
                continue
            note_attempt(task)
            ok = not lost(local_rngs[sensor], local)
            run.link_attempt(sensor, relay, ok)
            run.log("transmit", sensor, relay, task, packet, "ok" if ok else "lost")
            if ok:
                cached.add((task, packet))
                run.log("relay-cache", relay, relay, task, packet, "ok")
            else:
                run.outcomes[task].losses += 1
        run.slot += 1
        run.now += slot_local

    # Phase 2: relays forward cached packets to the controller, sequentially.
    for relay in topology.relays:
        for task, packet, sensor in schedules[relay]:
            if (task, packet) not in cached:
                continue
            if expired(task, slot_up):
                run.outcomes[task].skipped += 1
                continue
            note_attempt(task)
            ok = not lost(up_rngs[relay], chan)
            run.link_attempt(relay, topology.controller, ok)
            run.log("transmit", relay, topology.controller, task, packet, "ok" if ok else "lost")
            run.slot += 1
            run.now += slot_up
            if ok:
                delivered.add((task, packet))
                run.outcomes[task].delivered += 1
                run.log("ack", topology.controller, relay, task, packet, "ok")
            else:
                run.outcomes[task].losses += 1

    def try_dispatch(task: int) -> bool:
        spec = specs[task]
        out = run.outcomes[task]
        if not out.dispatched and out.delivered / out.required >= spec.epsilon:
            out.dispatched = True
            out.completion_time = run.now + topology.c_to_m_latency
            run.log("fdd-dispatch", topology.edge_server, topology.edge_server, task, -1, "ok")
            return True
        return False

    for task in specs:
        try_dispatch(task)

    # Edge-driven repair rounds: missing list goes back, relay re-sends each
    # missing packet bundled with its cached predecessor (double airtime).
    rounds = 0
    while True:
        pending = [t for t, o in run.outcomes.items() if not o.dispatched]
        pending = [t for t in pending if not expired(t, slot_up)]
        if not pending or (max_rounds is not None and rounds >= max_rounds):
            break
        rounds += 1
        progressed = False
        for task, packet, sensor in layout:
            if task not in pending or (task, packet) in delivered:
                continue
            out = run.outcomes[task]
            if out.dispatched:
                continue
            relay = relay_of[sensor]
            run.log("nack", topology.edge_server, relay, task, packet, "missing")
            if (task, packet) not in cached:
                # The relay never got it: the sensor must re-send locally first.
                if expired(task, slot_local):
                    out.skipped += 1
                    continue
                note_attempt(task)
                ok = not lost(local_rngs[sensor], local)
                run.link_attempt(sensor, relay, ok)
                run.log("retransmit", sensor, relay, task, packet, "ok" if ok else "lost")
                run.slot += 1
                run.now += slot_local
                progressed = True
                if ok:
                    cached.add((task, packet))
                    run.log("relay-cache", relay, relay, task, packet, "ok")
                else:
                    out.losses += 1
                    continue
            bundle_time = 2.0 * slot_up
            if expired(task, bundle_time):
                out.skipped += 1
                continue
            note_attempt(task)
            ok = not lost(up_rngs[relay], chan)
            run.link_attempt(relay, topology.controller, ok)
            run.log("retransmit", relay, topology.controller, task, packet, "ok" if ok else "lost")
            run.slot += 2  # missing packet plus cached predecessor
            run.now += bundle_time
            progressed = True
            if ok:
                delivered.add((task, packet))
                out.delivered += 1
                run.log("ack", topology.controller, relay, task, packet, "ok")
                try_dispatch(task)
            else:
                out.losses += 1
        if not progressed:
            break

    return run.finalize(t_p)


def run_baseline(
    protocol_tag: Protocol,
    topology: Topology,
    flows: list[FlowSpec],
    chan: ChannelParams,
    seed: int,
    packet_bits: int = 176,
    p_timeout: float = 1e-4,
    harq: HarqParams | None = None,
    oc_t1: float | None = None,
    oc_t2: float | None = None,
    record_events: bool = True,
) -> SimTrace:
    """Simulate one of the baseline protocols over the same slotted channel.

    Selective Repeat: per-packet attempts direct to the controller with
    timeout-or-outage losses and selective retransmission of the missing set.
    HARQ: per-packet mutual-information accumulation over up to Q rounds with
    L-branch diversity. Occupy CoW: two fixed phases; stragglers are rescued
    by the flooding survivors with the conditional phase-2 failure p12.
    """
    if protocol_tag == Protocol.SELECTIVE_REPEAT_ARQ:
        return _run_selective_repeat(topology, flows, chan, seed, packet_bits, p_timeout, record_events)
    if protocol_tag == Protocol.HARQ:
        return _run_harq(topology, flows, chan, seed, packet_bits, harq or HarqParams(7, 2), record_events)
    if protocol_tag == Protocol.OCCUPY_COW:
        return _run_occupy_cow(topology, flows, chan, seed, packet_bits, oc_t1, oc_t2, record_events)
    raise ValueError(f"run_baseline does not handle {protocol_tag}")


def _run_selective_repeat(topology, flows, chan, seed, packet_bits, p_timeout, record):
    run = _Run(Protocol.SELECTIVE_REPEAT_ARQ, flows, record)
    slot = packet_bits / chan.rate_bps
    rngs = {s: spawn_stream(seed, 1, i) for i, s in enumerate(topology.sensors)}
    timeout_rng = spawn_stream(seed, 3)
    specs = run.flows
    layout = _packet_layout(flows)
    pending = {(t, p): sensor for t, p, sensor in layout}
    deadline = {t: specs[t].deadline for t in specs}

    round_no = 0
    while pending:
        round_no += 1
        progressed = False
        for (task, packet), sensor in sorted(pending.items()):
            out = run.outcomes[task]
            if out.dispatched:
                continue
            if run.now + slot > deadline[task]:
                out.skipped += 1
                continue
            event = "transmit" if round_no == 1 else "retransmit"
            if round_no > 1:
                run.log("nack", topology.controller, sensor, task, packet, "missing")
            out.attempts += 1
            if out.first_attempt_time is None:
                out.first_attempt_time = run.now
            timed_out = p_timeout > 0 and timeout_rng.random() < p_timeout
            ok = not timed_out and _fade_ok(rngs[sensor], chan)
            run.link_attempt(sensor, topology.controller, ok)
            run.log(event, sensor, topology.controller, task, packet, "ok" if ok else "lost")
            # A delivered packet occupies three airtimes (data, ack, turnaround);
            # a lost one burns only its own slot before the timeout fires.
            cost = 3 if ok else 1
            run.slot += cost
            run.now += cost * slot
            progressed = True
            if ok:
                out.delivered += 1
                run.log("ack", topology.controller, sensor, task, packet, "ok")
                del pending[(task, packet)]
                if not out.dispatched and out.delivered / out.required >= specs[task].epsilon:
                    out.dispatched = True
                    out.completion_time = run.now + topology.c_to_m_latency
                    run.log("fdd-dispatch", topology.edge_server, topology.edge_server, task, -1, "ok")
            else:
                out.losses += 1
        live = [t for t in specs if not run.outcomes[t].dispatched and run.now + slot <= deadline[t]]
        if not progressed or not live:
            break

    return run.finalize(max(deadline.values()))


def _run_harq(topology, flows, chan, seed, packet_bits, harq: HarqParams, record):
    run = _Run(Protocol.HARQ, flows, record)
    slot = packet_bits / chan.rate_bps
    rngs = {s: spawn_stream(seed, 1, i) for i, s in enumerate(topology.sensors)}
    specs = run.flows
    r_norm = chan.spectral_efficiency
    snr = chan.snr_linear

    for task, packet, sensor in _packet_layout(flows):
        out = run.outcomes[task]
        if out.dispatched:
            continue
        accumulated = 0.0
        decoded = False
        for rnd in range(1, harq.max_rounds + 1):
            if run.now + slot > specs[task].deadline:
                out.skipped += 1
                break
            out.attempts += 1
            if out.first_attempt_time is None:
                out.first_attempt_time = run.now
            fades = rngs[sensor].exponential(1.0, size=harq.diversity_order)
            accumulated += float(np.log2(1.0 + snr * fades).mean())
            decoded = accumulated > r_norm
            event = "transmit" if rnd == 1 else "retransmit"
            run.link_attempt(sensor, topology.controller, decoded)
            run.log(event, sensor, topology.controller, task, packet, "ok" if decoded else "lost")
            run.slot += 1
            run.now += slot
            if decoded:
                out.delivered += 1
                run.log("ack", topology.controller, sensor, task, packet, "ok")
                break
            run.log("nack", topology.controller, sensor, task, packet, "undecoded")
            out.losses += 1
        if not out.dispatched and out.delivered / out.required >= specs[task].epsilon:
            out.dispatched = True
            out.completion_time = run.now + topology.c_to_m_latency
            run.log("fdd-dispatch", topology.edge_server, topology.edge_server, task, -1, "ok")

    return run.finalize(max(f.deadline for f in flows))


def _run_occupy_cow(topology, flows, chan, seed, packet_bits, t1, t2, record):
    """Two fixed phases; every participant carries exactly one packet.

    Phase-1 losses are sampled fades at the phase-1 session rate; the rescue
    draw uses the conditional failure p12 directly (it is a ratio of the two
    phase outages, not an independent fade). The stratum where every node
    fails phase 1 leaves no relays and is treated as a void round, matching
    the fixed-schedule failure form and its enumeration oracle.
    """
    for spec in flows:
        if spec.packets_required != 1 or len(spec.sources) != 1:
            raise ValueError("the cooperative baseline expects one single-packet flow per node")
    n = len(flows)
    if n < 2:
        raise ValueError("need n >= 2 cooperating nodes")
    t1 = t1 if t1 is not None else 2.0 * n * (packet_bits + 1) / chan.rate_bps
    t2 = t2 if t2 is not None else n * (packet_bits + 1) / chan.rate_bps
    shape_bits = n * (packet_bits + 1)
    params = occupycow_phase_probs(_oc_shape(n, packet_bits), chan, t1, t2)
    phase1_chan = chan.with_rate(shape_bits / t1)

    run = _Run(Protocol.OCCUPY_COW, flows, record)
    rngs = {s.sources[0]: spawn_stream(seed, 1, i) for i, s in enumerate(flows)}
    rescue_rng = spawn_stream(seed, 4)

    survivors: list[FlowSpec] = []
    stragglers: list[FlowSpec] = []
    for spec in flows:
        out = run.outcomes[spec.task_id]
        out.attempts += 1
        out.first_attempt_time = run.now
        ok = _fade_ok(rngs[spec.sources[0]], phase1_chan)
        run.link_attempt(spec.sources[0], topology.controller, ok)
        run.log("transmit", spec.sources[0], topology.controller, spec.task_id, 0, "ok" if ok else "lost")
        run.slot += 1
        (survivors if ok else stragglers).append(spec)
        if not ok:
            out.losses += 1
    run.now += t1
    for spec in survivors:
        out = run.outcomes[spec.task_id]
        out.delivered = 1
        out.dispatched = True
        out.completion_time = run.now
        run.log("ack", topology.controller, spec.sources[0], spec.task_id, 0, "ok")

    if survivors and stragglers:
        for spec in stragglers:
            out = run.outcomes[spec.task_id]
            out.attempts += 1
            rescued = rescue_rng.random() >= params.p12
            run.log("retransmit", "flood", topology.controller, spec.task_id, 0, "ok" if rescued else "lost")
            run.slot += 1
            if rescued:
                out.delivered = 1
                out.dispatched = True
                out.completion_time = run.now + t2
                run.log("ack", topology.controller, spec.sources[0], spec.task_id, 0, "ok")
            else:
                out.losses += 1
    elif stragglers and not survivors:
        # Void round: no node survived phase 1, so no relay exists; the
        # fixed-schedule failure form excludes this stratum.
        for spec in stragglers:
            run.outcomes[spec.task_id].void_round = True
    run.now += t2

    return run.finalize(max(f.deadline for f in flows))


def _oc_shape(n: int, packet_bits: int) -> NetworkShape:
    return NetworkShape(
        n_total=n + 1,
        n_sensors=n,
        n_relays=1,
        relay_fanout=float(n),
        packet_bits=packet_bits,
    )


def measure_cec(
    trace: SimTrace, cec: CecConfig, t_cp_per_task: float
) -> ScheduleResult:
    """Reconstruct per-task utilizations and the aggregate efficiency from a trace.

    Each task's communication time spans its first attempt to its dispatch
    (capped at the slot); tasks that never fit inside the slot get zero
    compute time. The RB share per task is the equal allocation at ratio c.
    """
    if t_cp_per_task < 0:
        raise ValueError("t_cp_per_task must be >= 0")
    t_p = trace.t_p
    if len(trace.flows) * t_cp_per_task > t_p:
        raise ValueError(
            f"sum of compute times {len(trace.flows) * t_cp_per_task} exceeds the slot {t_p}"
        )
    share = cec.c / cec.n_tasks
    per_task = []
    pairs = []
    for task_id in sorted(trace.flows):
        out = trace.flows[task_id]
        t_idle = out.first_attempt_time if out.first_attempt_time is not None else t_p
        end = out.completion_time if out.completion_time is not None else t_p
        t_cm = min(max(end - t_idle, 0.0), t_p)
        t_cp = t_cp_per_task
        if t_idle + t_cm >= t_p:
            t_cp = 0.0  # no execution opportunity left in the slot
        u_c = compute_uc(t_cp, t_cm, t_p)
        u_rb = share * (t_cm / t_p)
        per_task.append(PerTaskUtilization(task_id, t_cm, u_c, u_rb))
        pairs.append((u_c, u_rb))
    agg = compute_ucc(pairs)
    return ScheduleResult(
        per_task=tuple(per_task), u_cc=agg.value, t_p=t_p, feasible=agg.feasible
    )


def estimate_pfail(
    runs: int,
    scenario: Callable[[int], SimTrace],
    seed: int,
    confidence: float = 0.99,
) -> tuple[float, float]:
    """Fraction of runs with a communication failure, with a binomial CI half-width.

    The scenario callable receives a per-run seed derived from the master
    seed; runs are independent streams and may be distributed freely.
    """
    if runs < 1000:
        raise ValueError("runs must be >= 1000")
    failures = 0
    base = np.random.SeedSequence(seed).generate_state(1)[0]
    for i in range(runs):
        trace = scenario(int(base) + i)
        if trace.any_communication_failure:
            failures += 1
    p = failures / runs
    z = float(ndtri(0.5 + confidence / 2.0))
    halfwidth = z * math.sqrt(max(p * (1.0 - p), 0.0) / runs)
    return p, halfwidth
