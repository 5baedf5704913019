"""Time-slotted execution of the uplink protocols over sampled Rayleigh links.

One run owns its event log and RNG streams (split per link from the master
seed), so identical seeds replay bit-identical traces. Every stream comes from
a seed plan, set up with its link: inside `estimate_pfail` from the plan of the
run's chunk of runs, the one scope that runs share (it also holds the last
run's set-up); outside, from a plan of the run's one seed. A path head's links
(1: sensors, 2: relays) are derived in one pass. Either way a stream depends only
on the run's seed and the link's path, not on the plan. A stream is read in
blocks sized by the packets its link carries; a block holds the same values,
in the same order, as the same number of draws taken one at a time, so the
block size never changes a trace. Every decision but HARQ's running sum is a
flag from `_Run.passes` (a fade at least the hop's `channel.fade_threshold`
h*, which the set-up holds) or `_Run.fires` (a uniform below p: a timeout, or
a failed Occupy CoW rescue, whose p12 = min(p1/p2, 1), p_k = 1 - exp(-h_k*),
comes from the set-up's own phase thresholds). A faded hop passes when no
timeout fired and its fade passes. Time advances in packet-airtime slots per
link rate; C-M control messages are error-free and instantaneous, and relay
queuing plus feedback latency are zero.
"""
from __future__ import annotations

import gc
import math
import operator
import warnings
from contextvars import ContextVar
from dataclasses import dataclass
from functools import partial
from itertools import chain, count, repeat
from types import MappingProxyType
from typing import Any, Callable, Iterator, Mapping, NamedTuple

from ._checks import integer, real
from .cec import CecConfig, PerTaskUtilization, ScheduleResult, compute_uc, compute_ucc, optimal_tcm_case3
from .channel import ChannelParams, SeedPlan, derive_seed, fade_threshold
from .protocols import HarqParams, MonteCarloEstimate, Protocol, _round_information

__all__ = [
    "CONTROLLER",
    "EDGE",
    "FLOOD",
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
CONTROLLER = "C"  # the plant controller every uplink ends at
EDGE = "M"  # the edge server that runs fault detection
FLOOD = "flood"  # the source of Occupy CoW's phase-2 rescues
_ROW = "%s,%s,%s,%s,%s,%s,%s\n"  # one exported event; %s writes any field as an f-string does
# `_new_tuple(TraceEvent, fields)` builds an event in C, at about half the cost of the
# NamedTuple's Python-level __new__; it checks no arity.
_new_tuple = tuple.__new__
_TOLIST = operator.methodcaller("tolist")  # a block of draws as Python floats, called in C
# The largest fade numpy's `exponential` returns: its ziggurat's tail, r - log1p(-u), at the
# largest uniform u = 1 - 2**-53, with r = 7.69711747013104972 (Marsaglia & Tsang, 2000).
_FADE_MAX = 44.43391803980815


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
    controller directly. Sensor names are distinct, and no node takes the
    name of a fixed node (CONTROLLER, EDGE) or of Occupy CoW's rescue source.
    The member map is kept as a read-only copy with tuple groups, and the
    sensors as a tuple, so no caller can change either past these checks.
    """

    members: Mapping[str, tuple[str, ...]]
    sensors: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", MappingProxyType({r: tuple(g) for r, g in self.members.items()}))
        object.__setattr__(self, "sensors", tuple(self.sensors))
        if len(set(self.sensors)) != len(self.sensors):
            raise ValueError("sensor names must be distinct")
        reserved = {CONTROLLER, EDGE, FLOOD}.intersection([*self.sensors, *self.members])
        if reserved:
            raise ValueError(f"node names {sorted(reserved)} are reserved")
        for relay in self.members:
            if relay in self.sensors:
                raise ValueError(f"node {relay} cannot be both relay and sensor")
        # With distinct sensors, equal sorted lists leave no sensor in two relays.
        if self.members and sorted(s for g in self.members.values() for s in g) != sorted(self.sensors):
            raise ValueError("relay member sets must partition the sensor set")

    @property
    def relays(self) -> tuple[str, ...]:
        return tuple(self.members)

    def __reduce__(self):
        # The read-only member map does not pickle; a copy or an unpickled topology is
        # rebuilt from a plain dict through the checks above.
        return Topology, (dict(self.members), self.sensors)


def star_topology(n_sensors: int) -> Topology:
    """Sensors talk to the controller directly (model II)."""
    integer("n_sensors", n_sensors, 1)
    sensors = tuple(f"v{i+1}" for i in range(n_sensors))
    return Topology(members={}, sensors=sensors)


def relay_topology(n_sensors: int, n_relays: int) -> Topology:
    """Round-robin sensor membership over relays (model III); sizes differ by <= 1."""
    integer("n_sensors", n_sensors, 1)
    integer("n_relays", n_relays, 1)
    sensors = tuple(f"v{i+1}" for i in range(n_sensors))
    groups: dict[str, list[str]] = {f"s{i+1}": [] for i in range(n_relays)}
    for i, sensor in enumerate(sensors):
        groups[f"s{i % n_relays + 1}"].append(sensor)
    return Topology(members={r: tuple(g) for r, g in groups.items()}, sensors=sensors)


@dataclass(frozen=True)
class FlowSpec:
    """Data requirement of one task: packet count, reliability level, slot budget."""

    task_id: int
    sources: tuple[str, ...]
    packets_required: int
    epsilon: float
    deadline: float

    def __post_init__(self) -> None:
        integer("task_id", self.task_id)
        integer("packets_required", self.packets_required, 1)
        real("epsilon", self.epsilon, "(0, 1]")
        real("deadline", self.deadline, "(0, inf)")
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
    integer("n_tasks", n_tasks, 1)
    packets = len(topology.sensors) if packets_per_task is None else integer("packets_per_task", packets_per_task, 1)
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


@dataclass(slots=True)
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
    communication_failure: bool = False  # delivered share below epsilon


_FAILED = operator.attrgetter("communication_failure")


@dataclass(slots=True)
class SimTrace:
    """Event log plus per-flow outcome summary of one protocol run."""

    protocol: Protocol
    events: list[TraceEvent]
    flows: dict[int, FlowOutcome]
    duration: float
    slots: int
    t_p: float

    @property
    def any_communication_failure(self) -> bool:
        return any(map(_FAILED, self.flows.values()))

    @property
    def link_stats(self) -> dict[tuple[str, str], list[int]]:
        """[attempts, losses] per (src, dst) link, counted from the logged `transmit` and
        `retransmit` events with outcome `ok` or `lost`; `{}` for a run that did not record."""
        stats: dict[tuple[str, str], list[int]] = {}
        for ev in self.events:
            if ev.event_type in ("transmit", "retransmit") and ev.outcome in ("ok", "lost"):
                entry = stats.setdefault((ev.src, ev.dst), [0, 0])
                entry[0] += 1
                entry[1] += ev.outcome == "lost"
        return stats


def export_trace(trace: SimTrace, path) -> None:
    """Write the event log as line-delimited records under the stable schema, the body in one pass."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(TRACE_HEADER + "\n")
        fh.write("".join(map(_ROW.__mod__, trace.events)))


def _meets_epsilon(delivered: int, required: int, epsilon: float) -> bool:
    """The dispatch rule: the delivered share of a flow has reached epsilon."""
    return delivered / required >= epsilon


class _SetUp(NamedTuple):
    """What a run derives from its arguments but the seed, each checked once (see `_set_up`)."""

    key: tuple  # those arguments: a run whose arguments are these very objects reuses the set-up
    protocol: Protocol
    specs: dict[int, FlowSpec]  # each flow by task id, in flow order
    layout: tuple[tuple[int, int, str], ...]  # each (task, packet, sensor); Selective Repeat's in (task, packet) order
    # The packets each sensor carries, its streams' block size; Occupy CoW's nodes alone, in flow order.
    carried: dict[str, int]
    latest: float  # the latest deadline
    slot: float  # a packet's airtime on the uplink to the controller
    # HARQ only: the rate a packet's accumulated information must pass, in bits/s/Hz, and the linear SNR.
    r_norm: float = 0.0
    snr: float = 0.0
    # The `fade_threshold` of the hop to the controller (Occupy CoW's phase 1, at its session rate)
    # and of ReFlexUp's sensor-to-relay hop.
    h_up: float = 0.0
    h_local: float = 0.0
    # ReFlexUp only: the local hop's slot, the padded slot, the layout as (task, packet, sensor,
    # relay), each relay's share of it, and each relay's packet count: its stream's block size.
    slot_local: float = 0.0
    t_p: float | None = None
    relay_layout: tuple[tuple[int, int, str, str], ...] = ()
    schedules: Mapping[str, tuple[tuple[int, int, str, str], ...]] = MappingProxyType({})
    uploads: Mapping[str, int] = MappingProxyType({})
    # Occupy CoW only: the two windows and the conditional rescue failure p12.
    t1: float = 0.0
    t2: float = 0.0
    p12: float = 0.0


def _set_up(key: tuple) -> _SetUp:
    """A run's set-up from `key`, its arguments but the seed: (protocol, topology, chan, chan_local,
    packet_bits, p_timeout, cec, t_cp, oc_t1, oc_t2, *flows), None for another protocol's options.
    Every argument is checked here. One pass over the flows lays each (task, packet) on a source
    sensor, round-robin over its flow's sources. Occupy CoW's flows must be one single-packet
    flow from each of two or more distinct nodes."""
    protocol, topology, chan, chan_local, packet_bits, p_timeout, cec, t_cp, t1, t2, *flows = key
    integer("packet_bits", packet_bits, 1)
    real("p_timeout", p_timeout, "[0, 1]")
    for link in filter(None, (chan, chan_local)):
        link.snr_linear  # a ValueError naming snr_db when the linear SNR overflows
    if not flows:
        raise ValueError("need at least one flow")
    specs: dict[int, FlowSpec] = {}
    layout: list[tuple[int, int, str]] = []
    carried = dict.fromkeys(topology.sensors, 0)
    latest = 0.0
    for f in flows:
        task, sources = f.task_id, f.sources
        if task in specs:
            raise ValueError("flows must have distinct task ids")
        specs[task] = f
        latest = max(latest, f.deadline)
        for p in range(f.packets_required):
            sensor = sources[p % len(sources)]
            if sensor not in carried:
                raise ValueError(f"flow source {sensor!r} is not a sensor of the topology")
            carried[sensor] += 1
            layout.append((task, p, sensor))
    slot = packet_bits / chan.rate_bps
    own: dict[str, Any] = {}  # the protocol's own fields
    if protocol is Protocol.REFLEXUP:
        if not topology.members:
            raise ValueError("the two-phase protocol needs a relay topology")
        local = chan if chan_local is None else chan_local
        slot_local = packet_bits / local.rate_bps
        if not (slot_local and slot):  # an infinite rate: a lost packet would be re-sent forever in no time
            raise ValueError(f"rate_bps must be finite, got {local.rate_bps} (local) and {chan.rate_bps} (uplink)")
        relay_of = {s: r for r, group in topology.members.items() for s in group}
        shares: dict[str, list[tuple[int, int, str, str]]] = {r: [] for r in topology.members}
        relay_layout = []
        for task, p, sensor in layout:
            entry = (task, p, sensor, relay_of[sensor])
            relay_layout.append(entry)
            shares[entry[3]].append(entry)
        # Parameter calculation at the edge: reports in, window/slot out. The per-flow
        # deadlines carry the slot budget; t_p is kept on the trace.
        _, t_p = reflexup_plan(cec, t_cp)
        own = dict(
            h_up=fade_threshold(chan, chan.rate_bps), h_local=fade_threshold(local, local.rate_bps),
            slot_local=slot_local, t_p=t_p, relay_layout=tuple(relay_layout),
            schedules={r: tuple(share) for r, share in shares.items()}, uploads={r: len(share) for r, share in shares.items()},
        )
    elif protocol is Protocol.SELECTIVE_REPEAT_ARQ:
        if not slot:  # an infinite rate: a lost packet would be re-sent forever in no time
            raise ValueError(f"rate_bps must be finite for Selective Repeat, got {chan.rate_bps}")
        layout.sort()
        own = dict(h_up=fade_threshold(chan, chan.rate_bps))
    elif protocol is Protocol.HARQ:
        own = dict(r_norm=chan.spectral_efficiency, snr=chan.snr_linear)
    else:
        if any(f.packets_required != 1 or len(f.sources) != 1 for f in flows):
            raise ValueError("the cooperative baseline expects one single-packet flow per node")
        if len(flows) < 2:
            raise ValueError("need n >= 2 cooperating nodes")
        nodes = [sensor for _, _, sensor in layout]
        if len(set(nodes)) < len(nodes):
            raise ValueError(f"node {max(carried, key=carried.get)} sends more than one flow; each cooperating node sends one")
        carried, n = dict.fromkeys(nodes, 1), len(nodes)
        bits = n * (packet_bits + 1)  # the whole shape's bits, which each phase moves in its window
        t1 = real("t1", t1 if t1 is not None else 2.0 * bits / chan.rate_bps, "(0, inf)")
        t2 = real("t2", t2 if t2 is not None else bits / chan.rate_bps, "(0, inf)")
        # A phase fails with p_k = 1 - exp(-h_k*); a straggler's rescue fails with min(p1/p2, 1).
        h1, h2 = fade_threshold(chan, bits / t1), fade_threshold(chan, bits / t2)
        p1, p2 = -math.expm1(-h1), -math.expm1(-h2)
        own = dict(t1=t1, t2=t2, h_up=h1, p12=min(p1 / p2, 1.0) if p2 > 0 else 1.0)
    return _SetUp(key, protocol, specs, tuple(layout), carried, latest, slot, **own)


class _Plan(SeedPlan):
    """One chunk of an estimate's runs, or the one seed of a run outside an estimate: their
    seeds' stream words, and the set-up of the last run, which the next run in an estimate
    reuses when each of its arguments but the seed is the very object the last run had."""

    setup: _SetUp | None = None


# The plan of the estimate whose runs are executing, or None outside an estimate, where
# nothing is kept: the one scope that runs of a scenario share.
_PLAN: ContextVar[_Plan | None] = ContextVar("cecbench_plan", default=None)


class _Run:
    """One run's flag and value readers, and the one writer of its counts, event log, clock and outcomes.

    Its runner reads all that `key`, the run's arguments but the seed, fixes from `setup`.
    A run that records holds the cyclic garbage collector from construction
    until `close`, which its entry point calls in a `finally`; one that does not
    record leaves the collector alone. A run makes no reference cycles, but
    every recorded event is a tracked TraceEvent, and each full collection
    rescans all events recorded so far: without the pause the `trace`
    benchmark read 406-411k against 552-565k events/s (-27%, 3 alternating
    6 s pairs on a 2-core guest), and doubling the criterion-8 nodes took
    2.0-2.6x the time against 1.7-2.1x with it. `close` restores the
    collector's previous state.
    """

    __slots__ = ("record", "seed", "plan", "held", "setup", "events", "flows", "outcomes", "now", "slot")

    def __init__(self, key: tuple, record: bool, seed: int):
        # A numpy integer seed runs as its plain int, the only seed type a plan serves.
        seed = operator.index(seed)
        self.record = record
        self.seed = seed
        self.events: list[TraceEvent] = []
        self.now = 0.0
        self.slot = 0
        # Every stream comes from a plan: the estimate's, or outside one a plan of this seed
        # alone, which is dropped with the run. For a seed outside [0, 2**64) the plan sets
        # each stream up alone.
        self.plan = plan = _PLAN.get() or _Plan(range(seed, seed + 1))
        # Held before the set-up, whose tuples would otherwise start collections.
        self.held = record and gc.isenabled()
        if self.held:
            gc.disable()
        try:
            # Inside an estimate a run reuses the last run's set-up when each of its arguments is
            # the very object the last run had: the flows are frozen FlowSpecs, the topology and
            # channels frozen too. Each run still builds its own outcomes, streams and readers.
            setup = plan.setup
            if setup is None or len(setup.key) != len(key) or not all(map(operator.is_, setup.key, key)):
                setup = plan.setup = _set_up(key)
        except BaseException:
            self.close()
            raise
        self.setup = setup
        self.flows = setup.specs
        self.outcomes = outcomes = {}
        for task, f in self.flows.items():
            outcomes[task] = FlowOutcome(task, f.packets_required)

    def close(self) -> None:
        """Restore the collector if this run holds it; its entry point calls this in a `finally`."""
        if self.held:
            gc.enable()

    # The readers set their streams up now and read them in blocks of n; a run's last block may
    # be left half read. A flag reader is a C iterator with no Python frame per draw or block,
    # and reads a one-draw block as the scalar draw, which skips numpy's array path.

    def passes(self, head: int, sizes: Mapping[str, int], h_star: float) -> dict[str, Iterator[bool]]:
        """Each node's hop flags from its stream on path (head, i), i its index in `sizes`, in blocks of
        sizes[node]: a unit-mean exponential fade passes when it is at least `h_star`, which it is
        with probability exp(-h_star). Above `_FADE_MAX` no fade passes and no stream is set up."""
        if h_star > _FADE_MAX:
            return dict.fromkeys(sizes, repeat(False))
        readers = {}
        for (v, n), rng in zip(sizes.items(), self.plan.streams(self.seed, head, len(sizes))):
            fades = iter(rng.exponential, None) if n == 1 else chain.from_iterable(
                map(_TOLIST, map(rng.exponential, repeat(1.0), repeat(n))))
            readers[v] = map(partial(operator.le, h_star), fades)
        return readers

    def fires(self, p: float, n: int, *path: int) -> Iterator[bool]:
        """The flags of the uniform stream at `path`, in blocks of n: a draw fires when it is below
        `p`. At p = 0 nothing fires, at p >= 1 every draw does, and neither sets up a stream."""
        if not p:
            return repeat(False)
        if p >= 1:
            return repeat(True)
        rng = self.plan.stream(self.seed, *path)
        draws = iter(rng.random, None) if n == 1 else chain.from_iterable(map(_TOLIST, map(rng.random, repeat(n))))
        return map(partial(operator.gt, p), draws)

    def link_draws(self, take: Callable[[Any, int], list[float]], head: int, sizes: Mapping[str, int]) -> dict:
        """HARQ's value reader: each node's values on path (head, i), in blocks of sizes[node], where
        take(rng, n), called once per block, returns the next n values of the stream rng."""
        readers = {}
        for (v, n), rng in zip(sizes.items(), self.plan.streams(self.seed, head, len(sizes))):
            readers[v] = chain.from_iterable(map(take, repeat(rng), repeat(n)))
        return readers

    def fits(self, task: int, duration: float) -> bool:
        """Whether `duration` more airtime ends by the task's deadline; a miss counts as a skip."""
        if self.now + duration > self.flows[task].deadline:
            self.outcomes[task].skipped += 1
            return False
        return True

    def live(self, duration: float) -> list[int]:
        """Tasks not yet dispatched whose deadline still admits `duration` more airtime."""
        end = self.now + duration
        return [t for t, o in self.outcomes.items() if not o.dispatched and end <= self.flows[t].deadline]

    def log(self, event: str, src: str, dst: str, task: int, packet: int, outcome: str) -> None:
        """Append one event at the current slot, if the run records events."""
        if self.record:
            self.events.append(_new_tuple(TraceEvent, (self.slot, event, src, dst, task, packet, outcome)))

    def attempt(
        self, event: str, src: str, dst: str, task: int, packet: int, ok: bool, slots: int = 0, airtime: float = 0.0
    ) -> bool:
        """Count and log one transmission of (task, packet) over src -> dst at the current slot,
        then advance the clock by the `slots` and `airtime` seconds it occupies; return `ok`."""
        out = self.outcomes[task]
        out.attempts += 1
        if out.first_attempt_time is None:
            out.first_attempt_time = self.now
        if not ok:
            out.losses += 1
        if self.record:
            self.events.append(_new_tuple(TraceEvent, (self.slot, event, src, dst, task, packet, "ok" if ok else "lost")))
        self.slot += slots
        self.now += airtime
        return ok

    def wait(self, airtime: float, slots: int = 0) -> None:
        """Advance the clock with no attempt: ReFlexUp's phase-1 waves, Occupy CoW's phase ends."""
        self.slot += slots
        self.now += airtime

    def deliver(self, task: int, packet: int, node: str) -> None:
        """Count (task, packet) delivered and ack it to `node`; dispatch the task once its share reaches epsilon."""
        out = self.outcomes[task]
        out.delivered += 1
        if self.record:
            self.events.append(_new_tuple(TraceEvent, (self.slot, "ack", CONTROLLER, node, task, packet, "ok")))
        if not out.dispatched and _meets_epsilon(out.delivered, out.required, self.flows[task].epsilon):
            out.dispatched = True
            out.completion_time = self.now
            if self.record:
                self.events.append(_new_tuple(TraceEvent, (self.slot, "fdd-dispatch", EDGE, EDGE, task, -1, "ok")))

    def finalize(self, t_p: float | None = None, void: bool = False) -> SimTrace:
        """Mark each flow's failure and return the trace; `t_p` defaults to the latest deadline. A flow
        fails unless it dispatched, which `deliver` does at the first delivery that meets the dispatch
        rule; `void` marks every flow's round void (Occupy CoW: no phase-1 survivor), so none fails."""
        for out in self.outcomes.values():
            out.void_round = void
            out.communication_failure = not (void or out.dispatched)
        setup = self.setup
        return SimTrace(setup.protocol, self.events, self.outcomes, self.now, self.slot, setup.latest if t_p is None else t_p)


def reflexup_plan(cec: CecConfig, t_cp: float) -> tuple[float, float]:
    """Edge-side parameter calculation: target window and padded slot length.

    Issues the warnings of the computation (`DegenerateScheduleWarning` when
    N*c0 == t_cp) at its caller.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        target = optimal_tcm_case3(t_cp, cec)
    for w in caught:
        warnings.warn(w.message, w.category, stacklevel=2)
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
    `max_rounds`, when given, bounds the repair rounds.
    """
    if max_rounds is not None:
        integer("max_rounds", max_rounds, 0)
    run = _Run((Protocol.REFLEXUP, topology, chan, chan_local, packet_bits, p_timeout, cec, t_cp, None, None, *flows),
               record_events, seed)
    try:
        setup = run.setup
        slot_local, slot_up = setup.slot_local, setup.slot
        # Each relay's schedule of the layout entries (task, packet, sensor, relay), and the
        # entries not yet acked, in layout order.
        schedules, missing = setup.schedules, setup.relay_layout
        # The edge server's parameter calculation, made in the set-up: reports in, window/slot out.
        for r in schedules:
            run.log("transmit", r, EDGE, -1, -1, "report")
        for r in schedules:
            run.log("transmit", EDGE, r, -1, -1, "inform")
        # A hop's fade is drawn only when no timeout fired.
        local_passes = run.passes(1, setup.carried, setup.h_local)
        up_passes = run.passes(2, setup.uploads, setup.h_up)
        timed_out = run.fires(p_timeout, 2 * len(setup.layout), 3)
        # Entries the relay holds, and those the controller acked.
        cached: set[tuple[int, int, str, str]] = set()
        acked: set[tuple[int, int, str, str]] = set()

        # Phase 1: relays run parallel sessions; one wave = one local slot.
        for wave in range(max(setup.uploads.values())):
            for sched in schedules.values():
                if wave >= len(sched):
                    continue
                entry = sched[wave]
                task, packet, sensor, relay = entry
                if not run.fits(task, slot_local):
                    continue
                ok = not next(timed_out) and next(local_passes[sensor])
                if run.attempt("transmit", sensor, relay, task, packet, ok):
                    cached.add(entry)
                    run.log("relay-cache", relay, relay, task, packet, "ok")
            run.wait(slot_local, slots=1)

        # Phase 2: relays forward cached packets to the controller, sequentially.
        for sched in schedules.values():
            for entry in sched:
                task, packet, _, relay = entry
                if entry not in cached or not run.fits(task, slot_up):
                    continue
                ok = not next(timed_out) and next(up_passes[relay])
                if run.attempt("transmit", relay, CONTROLLER, task, packet, ok, 1, slot_up):
                    acked.add(entry)
                    run.deliver(task, packet, relay)

        # Edge-driven repair rounds: missing list goes back, relay re-sends each
        # missing packet bundled with its cached predecessor (double airtime).
        # A round scans the layout entries not yet acked, in layout order.
        for rounds in count():
            pending = run.live(slot_up)
            if not pending or (max_rounds is not None and rounds >= max_rounds):
                break
            progressed = False
            missing = [entry for entry in missing if entry not in acked]
            for entry in missing:
                task, packet, sensor, relay = entry
                if task not in pending or run.outcomes[task].dispatched:
                    continue
                run.log("nack", EDGE, relay, task, packet, "missing")
                if entry not in cached:
                    # The relay never got it: the sensor must re-send locally first.
                    if not run.fits(task, slot_local):
                        continue
                    progressed = True
                    ok = not next(timed_out) and next(local_passes[sensor])
                    if not run.attempt("retransmit", sensor, relay, task, packet, ok, 1, slot_local):
                        continue
                    cached.add(entry)
                    run.log("relay-cache", relay, relay, task, packet, "ok")
                bundle_time = 2.0 * slot_up
                if not run.fits(task, bundle_time):
                    continue
                progressed = True
                # Two slots: the missing packet plus its cached predecessor.
                ok = not next(timed_out) and next(up_passes[relay])
                if run.attempt("retransmit", relay, CONTROLLER, task, packet, ok, 2, bundle_time):
                    acked.add(entry)
                    run.deliver(task, packet, relay)
            if not progressed:
                break

        return run.finalize(setup.t_p)
    finally:
        run.close()


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
    if protocol_tag not in (Protocol.SELECTIVE_REPEAT_ARQ, Protocol.HARQ, Protocol.OCCUPY_COW):
        raise ValueError(f"run_baseline does not handle {protocol_tag}")
    run = _Run((protocol_tag, topology, chan, None, packet_bits, p_timeout, None, None, oc_t1, oc_t2, *flows),
               record_events, seed)
    try:
        if protocol_tag is Protocol.SELECTIVE_REPEAT_ARQ:
            return _run_selective_repeat(run, p_timeout)
        if protocol_tag is Protocol.HARQ:
            return _run_harq(run, harq or HarqParams(7, 2))
        return _run_occupy_cow(run)
    finally:
        run.close()


def _run_selective_repeat(run: _Run, p_timeout):
    setup = run.setup
    slot = setup.slot
    passes = run.passes(1, setup.carried, setup.h_up)
    # The packets not yet delivered, in (task, packet) order.
    pending = setup.layout
    timed_out = run.fires(p_timeout, len(pending), 3)

    for round_no in count(1):
        event = "transmit" if round_no == 1 else "retransmit"
        progressed = False
        missing = []
        for entry in pending:
            task, packet, sensor = entry
            if run.outcomes[task].dispatched or not run.fits(task, slot):
                missing.append(entry)
                continue
            if round_no > 1:
                run.log("nack", CONTROLLER, sensor, task, packet, "missing")
            ok = not next(timed_out) and next(passes[sensor])
            # A delivered packet occupies three airtimes (data, ack, turnaround);
            # a lost one burns only its own slot before the timeout fires.
            cost = 3 if ok else 1
            run.attempt(event, sensor, CONTROLLER, task, packet, ok, cost, cost * slot)
            progressed = True
            if ok:
                run.deliver(task, packet, sensor)
            else:
                missing.append(entry)
        pending = missing
        if not (progressed and pending and run.live(slot)):
            break

    return run.finalize()


def _run_harq(run: _Run, harq: HarqParams):
    setup = run.setup
    slot, r_norm, snr = setup.slot, setup.r_norm, setup.snr
    max_rounds, order = harq.max_rounds, harq.diversity_order

    # A block holds one round per packet the sensor carries; packets that
    # need more rounds read on into the next block.
    information = run.link_draws(lambda rng, n: _round_information(rng, snr, (n, order)).tolist(), 1, setup.carried)

    for task, packet, sensor in setup.layout:
        if run.outcomes[task].dispatched:
            continue
        accumulated = 0.0
        for rnd in range(1, max_rounds + 1):
            if not run.fits(task, slot):
                break
            accumulated += next(information[sensor])
            event = "transmit" if rnd == 1 else "retransmit"
            if run.attempt(event, sensor, CONTROLLER, task, packet, accumulated > r_norm, 1, slot):
                run.deliver(task, packet, sensor)
                break
            run.log("nack", CONTROLLER, sensor, task, packet, "undecoded")

    return run.finalize()


def _run_occupy_cow(run: _Run):
    """Two fixed phases; every participant carries exactly one packet (its set-up checks that).

    Phase-1 losses are sampled fades at the phase-1 session rate; the rescue
    draw uses the conditional failure p12 directly (it is a ratio of the two
    phase outages, not an independent fade), which the set-up derives from its
    own phase thresholds. The stratum where every node
    fails phase 1 leaves no relays and is treated as a void round, matching
    the fixed-schedule failure form and its enumeration oracle.
    """
    setup = run.setup
    passes = run.passes(1, setup.carried, setup.h_up)

    # Each layout entry is one node's flow: (task, 0, node).
    survivors: list[tuple[int, int, str]] = []
    stragglers: list[tuple[int, int, str]] = []
    for entry in setup.layout:
        task, _, node = entry
        ok = run.attempt("transmit", node, CONTROLLER, task, 0, next(passes[node]), 1)
        (survivors if ok else stragglers).append(entry)
    run.wait(setup.t1)
    for task, _, node in survivors:
        run.deliver(task, 0, node)

    # Rescued stragglers arrive, and dispatch, at the end of phase 2.
    run.wait(setup.t2)
    if survivors and stragglers:
        fails = run.fires(setup.p12, len(stragglers), 4)
        for task, _, node in stragglers:
            if run.attempt("retransmit", FLOOD, CONTROLLER, task, 0, not next(fails), 1):
                run.deliver(task, 0, node)

    # Void round: no node survived phase 1, so no relay exists; the
    # fixed-schedule failure form excludes this stratum.
    return run.finalize(void=not survivors)


def measure_cec(
    trace: SimTrace, cec: CecConfig, t_cp_per_task: float
) -> ScheduleResult:
    """Reconstruct per-task utilizations and the aggregate efficiency from a trace.

    Each task's communication time spans its first attempt to its dispatch
    (capped at the slot); tasks that never fit inside the slot get zero
    compute time. The RB share per task is the equal allocation at ratio c.
    """
    real("t_cp_per_task", t_cp_per_task, "[0, inf)")
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


# Runs per `_Plan` of an estimate. On a 2-core guest (numpy 2.4.6) a plan's seed pool for
# 1024 seeds takes about 0.09 ms and each path about 0.07-0.1 ms more, and it holds 32 bytes
# per seed and path, so memory stays at one plan's rows however many runs the estimate makes.
_PLAN_RUNS = 1024


def estimate_pfail(runs: int, scenario: Callable[[int], SimTrace], seed: int) -> MonteCarloEstimate:
    """Fraction of runs with a communication failure, as a proportion that unpacks as (p, ci99).

    The scenario callable receives a per-run seed derived from the master
    seed; runs are independent streams and may be distributed freely. The
    runs' stream seeding words are derived in bulk, one plan per 1024 runs,
    which leaves every stream as it would be outside a plan. A run whose
    arguments but the seed are the very objects of the run before it in the
    same plan reuses that run's checked set-up (so a degenerate ReFlexUp plan
    warns once per set-up, not once per run). `runs` is an integer of at
    least 1000. The 99% half-width is the larger distance from p to the ends
    of the Wilson score interval, so it stays positive when no run fails or
    every run does.
    """
    runs = int(integer("runs", runs, 1000))
    base, failures = derive_seed(seed), 0
    for start in range(base, base + runs, _PLAN_RUNS):
        seeds = range(start, min(start + _PLAN_RUNS, base + runs))
        token = _PLAN.set(_Plan(seeds))
        try:
            failures += sum(map(operator.attrgetter("any_communication_failure"), map(scenario, seeds)))
        finally:
            _PLAN.reset(token)
    return MonteCarloEstimate.proportion(failures, runs)
