"""Time-slotted execution of the uplink protocols over sampled Rayleigh links.

One run owns its event log and RNG streams (split per link from the master
seed), so identical seeds replay bit-identical traces. Each link's stream is
set up with the link: inside `estimate_pfail` from the plan of the run's chunk
of runs, the one scope that runs share (it also holds their set-up memo);
outside, by `spawn_stream` or, for many links under one path head (1: sensors,
2: relays), by one `spawn_streams` pass. All three give equal streams. A stream
is read in blocks sized by the packets its link carries; a block holds the
same values, in the same order, as the same number of draws taken one at a
time, so the block size never changes a trace. Time advances in
packet-airtime slots per link rate; C-M control messages are error-free and
instantaneous, and relay queuing plus feedback latency are zero.
"""
from __future__ import annotations

import functools
import gc
import math
import operator
import warnings
from contextvars import ContextVar
from dataclasses import dataclass
from itertools import chain, count, repeat
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from ._checks import integer, real
from .cec import CecConfig, PerTaskUtilization, ScheduleResult, compute_uc, compute_ucc, optimal_tcm_case3
from .channel import ChannelParams, SeedPlan, derive_seed, spawn_stream, spawn_streams
from .protocols import HarqParams, MonteCarloEstimate, NetworkShape, Protocol, _round_information, occupycow_phase_probs

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


def star_topology(n_sensors: int) -> Topology:
    """Sensors talk to the controller directly (model II)."""
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


# Block sources for _Run.draws and _Run.link_draws: take(rng, n) returns the
# next n draws. `_SCALAR` names the Generator method that draws one value of a
# source with its defaults: a reader of one-draw blocks, which a run of one
# packet per link reads on every stream, calls it without numpy's array path.
_Take = Callable[[np.random.Generator, int], list[float]]


def _fades(rng: np.random.Generator, n: int) -> list[float]:
    """n unit-mean exponential fade powers (Rayleigh |h|^2)."""
    return rng.exponential(1.0, size=n).tolist()


def _uniforms(rng: np.random.Generator, n: int) -> list[float]:
    """n uniform [0, 1) draws, for timeouts and rescues."""
    return rng.random(size=n).tolist()


_SCALAR = {_fades: "exponential", _uniforms: "random"}
# Links from which a run sets up a path head's streams as one `spawn_streams` table. Timed
# on a 2-core KVM guest (numpy 2.4.6, best of 9 repeats), a table cost about 0.3-0.4 ms,
# almost all of it the fixed cost of its ~200 small array operations, plus about 3 us per
# stream; a stream set up alone cost 17-27 us. The two met between 12 and 20 paths.
_TABLE_MIN = 16


class _SetUp(NamedTuple):
    """What a run derives from its protocol, topology and flows alone (see `_Run.__init__`)."""

    protocol: Protocol
    topology: Topology
    flows: tuple[FlowSpec, ...]
    specs: dict[int, FlowSpec]  # each flow by task id, in flow order
    layout: tuple[tuple[int, int, str], ...]  # each (task, packet, sensor)
    carried: dict[str, int]  # the packets each sensor carries: its streams' block size
    latest: float  # the latest deadline
    # ReFlexUp only: the layout as (task, packet, sensor, relay), and each relay's share of it.
    relay_layout: tuple[tuple[int, int, str, str], ...]
    schedules: dict[str, tuple[tuple[int, int, str, str], ...]]
    nodes: tuple[str, ...]  # Occupy CoW only: each flow's one node, in flow order


def _set_up(protocol: Protocol, flows: list[FlowSpec], topology: Topology) -> _SetUp:
    """A run's set-up, from one pass over the flows: each (task, packet) goes to a source
    sensor, round-robin over its flow's sources. Occupy CoW's flows are checked here too:
    one single-packet flow from each of two or more distinct nodes."""
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
    relay_layout: list[tuple[int, int, str, str]] = []
    shares: dict[str, list[tuple[int, int, str, str]]] = {}
    if protocol is Protocol.REFLEXUP:
        relay_of = {s: r for r, group in topology.members.items() for s in group}
        shares = {r: [] for r in topology.members}
        for task, p, sensor in layout:
            entry = (task, p, sensor, relay_of[sensor])
            relay_layout.append(entry)
            shares[entry[3]].append(entry)
    schedules = {r: tuple(share) for r, share in shares.items()}
    nodes: tuple[str, ...] = ()
    if protocol is Protocol.OCCUPY_COW:
        if any(f.packets_required != 1 or len(f.sources) != 1 for f in flows):
            raise ValueError("the cooperative baseline expects one single-packet flow per node")
        if len(flows) < 2:
            raise ValueError("need n >= 2 cooperating nodes")
        nodes = tuple(sensor for _, _, sensor in layout)
        if len(set(nodes)) < len(nodes):
            raise ValueError(f"node {max(carried, key=carried.get)} sends more than one flow; each cooperating node sends one")
    return _SetUp(protocol, topology, tuple(flows), specs, tuple(layout), carried, latest, tuple(relay_layout), schedules, nodes)


class _Plan(SeedPlan):
    """One chunk of an estimate's runs: their seeds' stream words, and the set-up of the
    last run, which the next run reuses when it has the same protocol, topology and flows."""

    setup: _SetUp | None = None


# The plan of the estimate whose runs are executing, or None outside an estimate, where
# nothing is kept: the one scope that runs of a scenario share.
_PLAN: ContextVar[_Plan | None] = ContextVar("cecbench_plan", default=None)


class _Run:
    """One run's per-link draws, and the one writer of its counts, event log, clock and outcomes.

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

    __slots__ = (
        "protocol", "record", "seed", "stream", "tables", "held", "events", "flows", "outcomes", "now", "slot",
        "layout", "carried", "latest", "relay_layout", "schedules", "nodes",
    )

    def __init__(self, protocol: Protocol, flows: list[FlowSpec], record: bool, seed: int, topology: Topology,
                 packet_bits: int = 176, p_timeout: float = 0.0):
        # `integer("packet_bits", packet_bits, 1)` and `real("p_timeout", p_timeout, "[0, 1]")`, written
        # out: their two frames per run would count against the runners' frame budgets.
        if not ((type(packet_bits) is int or isinstance(packet_bits, np.integer)) and packet_bits >= 1 and 0.0 <= p_timeout <= 1.0):
            raise ValueError(f"need an integer packet_bits >= 1 and p_timeout in [0, 1], got {packet_bits!r}, {p_timeout!r}")
        if not flows:
            raise ValueError("need at least one flow")
        self.protocol = protocol
        self.record = record
        self.seed = seed
        self.events: list[TraceEvent] = []
        self.now = 0.0
        self.slot = 0
        # Inside an estimate every stream comes from its plan, which falls back to
        # `spawn_stream` for a seed it does not cover; outside one, from `spawn_stream`, or
        # from one `spawn_streams` table for `_TABLE_MIN` links or more under one path head.
        plan = _PLAN.get()
        self.stream = spawn_stream if plan is None else plan.stream
        self.tables = plan is None
        # Held before the set-up, whose tuples would otherwise start collections.
        self.held = record and gc.isenabled()
        if self.held:
            gc.disable()
        try:
            # Inside an estimate a run reuses the last run's set-up when it has the same protocol,
            # the very same topology object and a flows list of the very same FlowSpec objects,
            # which are frozen; each run still builds its own outcomes, streams and readers.
            setup = None if plan is None else plan.setup
            if not (
                setup is not None and setup.topology is topology and setup.protocol is protocol
                and len(setup.flows) == len(flows) and all(map(operator.is_, setup.flows, flows))
            ):
                setup = _set_up(protocol, flows, topology)
                if plan is not None:
                    plan.setup = setup
        except BaseException:
            self.close()
            raise
        _, _, _, self.flows, self.layout, self.carried, self.latest, self.relay_layout, self.schedules, self.nodes = setup
        self.outcomes = outcomes = {}
        for task, f in self.flows.items():
            outcomes[task] = FlowOutcome(task, f.packets_required)

    def close(self) -> None:
        """Restore the collector if this run holds it; its entry point calls this in a `finally`."""
        if self.held:
            gc.enable()

    def draws(self, take: _Take, n: int, *path: int) -> Iterator[float]:
        """The draws of the stream at `path`, set up now, in blocks of n."""
        rng, scalar = self.stream(self.seed, *path), _SCALAR.get(take)
        if n == 1 and scalar:
            return iter(getattr(rng, scalar), None)
        return chain.from_iterable(map(take, repeat(rng), repeat(n)))

    def link_draws(self, take: _Take, head: int, nodes: Sequence[str], sizes: Mapping[str, int]) -> dict:
        """Each node's draws on path (head, i), i its index in `nodes`, in blocks of sizes[node], all
        set up now: outside an estimate from `_TABLE_MIN` nodes up in one `spawn_streams` pass,
        otherwise one by one. Each reader is a C iterator, with no Python frame per draw but
        take's; a run's last block may be left half read."""
        seed, stream, scalar = self.seed, self.stream, _SCALAR.get(take)
        table = spawn_streams(seed, head, len(nodes)) if self.tables and len(nodes) >= _TABLE_MIN else None
        readers = {}
        for i, v in enumerate(nodes):
            rng = stream(seed, head, i) if table is None else table[i]
            n = sizes[v]
            if n == 1 and scalar:
                readers[v] = iter(getattr(rng, scalar), None)
            else:
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
        return SimTrace(self.protocol, self.events, self.outcomes, self.now, self.slot, self.latest if t_p is None else t_p)


def _attempt_test(
    chan: ChannelParams, rate: float, p_timeout: float = 0.0, timeouts: Iterator[float] | None = None
) -> Callable[[Iterator[float]], bool]:
    """Success test of one hop, for every runner: no timeout fired, and the faded capacity carries `rate`.

    The fade is drawn only when no timeout fired. A fade h passes exactly
    when `link_capacity_bps(chan, h) >= rate`: the same arithmetic, with W
    and snr read once (a property test holds the two equal near the threshold).
    """
    w, snr = chan.bandwidth_hz, chan.snr_linear

    def attempt_ok(fades: Iterator[float]) -> bool:
        if p_timeout > 0 and next(timeouts) < p_timeout:
            return False
        # math.log2, not np.log2: they differ in the last bit on a few
        # inputs, and a borderline fade would flip its outcome.
        return w * math.log2(1.0 + snr * next(fades)) >= rate

    return attempt_ok


@functools.lru_cache(maxsize=64)
def _padded_slot(cec: CecConfig, t_cp: float) -> tuple[float, float, tuple[warnings.WarningMessage, ...]]:
    """`reflexup_plan`'s window and slot, computed once per (cec, t_cp), with the warnings raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        target = optimal_tcm_case3(t_cp, cec)
    return target, cec.n_tasks * cec.c0 + target, tuple(caught)


def reflexup_plan(cec: CecConfig, t_cp: float) -> tuple[float, float]:
    """Edge-side parameter calculation: target window and padded slot length.

    Computed once per (cec, t_cp); every call re-issues the warnings of the
    computation (`DegenerateScheduleWarning` when N*c0 == t_cp) at its caller.
    """
    target, t_p, caught = _padded_slot(cec, t_cp)
    for w in caught:
        warnings.warn(w.message, w.category, stacklevel=2)
    return target, t_p


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
    if not topology.members:
        raise ValueError("the two-phase protocol needs a relay topology")
    run = _Run(Protocol.REFLEXUP, flows, record_events, seed, topology, packet_bits, p_timeout)
    try:
        local = chan_local if chan_local is not None else chan
        slot_local = packet_bits / local.rate_bps
        slot_up = packet_bits / chan.rate_bps
        # Parameter calculation at the edge: reports in, window/slot out. The
        # per-flow deadlines carry the slot budget; t_p is kept on the trace.
        _, t_p = reflexup_plan(cec, t_cp)
        relays = topology.relays
        for r in relays:
            run.log("transmit", r, EDGE, -1, -1, "report")
        for r in relays:
            run.log("transmit", EDGE, r, -1, -1, "inform")

        # Each relay's schedule of the layout entries (task, packet, sensor, relay), and the
        # entries not yet acked, in layout order.
        schedules, missing = run.schedules, run.relay_layout
        local_fades = run.link_draws(_fades, 1, topology.sensors, run.carried)
        up_fades = run.link_draws(_fades, 2, relays, dict(zip(relays, map(len, schedules.values()))))
        timeouts = run.draws(_uniforms, 2 * len(run.layout), 3) if p_timeout > 0 else None
        local_ok = _attempt_test(local, local.rate_bps, p_timeout, timeouts)
        up_ok = _attempt_test(chan, chan.rate_bps, p_timeout, timeouts)
        # Entries the relay holds, and those the controller acked.
        cached: set[tuple[int, int, str, str]] = set()
        acked: set[tuple[int, int, str, str]] = set()

        # Phase 1: relays run parallel sessions; one wave = one local slot.
        for wave in range(max(map(len, schedules.values()))):
            for sched in schedules.values():
                if wave >= len(sched):
                    continue
                entry = sched[wave]
                task, packet, sensor, relay = entry
                if not run.fits(task, slot_local):
                    continue
                if run.attempt("transmit", sensor, relay, task, packet, local_ok(local_fades[sensor])):
                    cached.add(entry)
                    run.log("relay-cache", relay, relay, task, packet, "ok")
            run.wait(slot_local, slots=1)

        # Phase 2: relays forward cached packets to the controller, sequentially.
        for sched in schedules.values():
            for entry in sched:
                task, packet, _, relay = entry
                if entry not in cached or not run.fits(task, slot_up):
                    continue
                if run.attempt("transmit", relay, CONTROLLER, task, packet, up_ok(up_fades[relay]), 1, slot_up):
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
                    ok = local_ok(local_fades[sensor])
                    if not run.attempt("retransmit", sensor, relay, task, packet, ok, 1, slot_local):
                        continue
                    cached.add(entry)
                    run.log("relay-cache", relay, relay, task, packet, "ok")
                bundle_time = 2.0 * slot_up
                if not run.fits(task, bundle_time):
                    continue
                progressed = True
                # Two slots: the missing packet plus its cached predecessor.
                if run.attempt("retransmit", relay, CONTROLLER, task, packet, up_ok(up_fades[relay]), 2, bundle_time):
                    acked.add(entry)
                    run.deliver(task, packet, relay)
            if not progressed:
                break

        return run.finalize(t_p)
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
    run = _Run(protocol_tag, flows, record_events, seed, topology, packet_bits, p_timeout)
    try:
        if protocol_tag is Protocol.SELECTIVE_REPEAT_ARQ:
            return _run_selective_repeat(run, topology, chan, packet_bits, p_timeout)
        if protocol_tag is Protocol.HARQ:
            return _run_harq(run, topology, chan, packet_bits, harq or HarqParams(7, 2))
        return _run_occupy_cow(run, chan, packet_bits, oc_t1, oc_t2)
    finally:
        run.close()


def _run_selective_repeat(run: _Run, topology, chan, packet_bits, p_timeout):
    slot = packet_bits / chan.rate_bps
    fades = run.link_draws(_fades, 1, topology.sensors, run.carried)
    timeouts = run.draws(_uniforms, len(run.layout), 3) if p_timeout > 0 else None
    attempt_ok = _attempt_test(chan, chan.rate_bps, p_timeout, timeouts)
    # The packets not yet delivered, in (task, packet) order.
    pending = sorted(run.layout)

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
            ok = attempt_ok(fades[sensor])
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


def _run_harq(run: _Run, topology, chan, packet_bits, harq: HarqParams):
    slot = packet_bits / chan.rate_bps
    r_norm = chan.spectral_efficiency
    snr = chan.snr_linear
    max_rounds, order = harq.max_rounds, harq.diversity_order

    # A block holds one round per packet the sensor carries; packets that
    # need more rounds read on into the next block.
    information = run.link_draws(lambda rng, n: _round_information(rng, snr, (n, order)).tolist(), 1, topology.sensors, run.carried)

    for task, packet, sensor in run.layout:
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


@functools.lru_cache(maxsize=64)
def _rescue_failure(n: int, packet_bits: int, chan: ChannelParams, t1: float, t2: float) -> float:
    """Occupy CoW's conditional phase-2 failure p12, computed once per channel and windows."""
    shape = NetworkShape(n_total=n + 1, n_sensors=n, n_relays=1, relay_fanout=float(n), packet_bits=packet_bits)
    return occupycow_phase_probs(shape, chan, t1, t2).p12


def _run_occupy_cow(run: _Run, chan, packet_bits, t1, t2):
    """Two fixed phases; every participant carries exactly one packet (its set-up checks that).

    Phase-1 losses are sampled fades at the phase-1 session rate; the rescue
    draw uses the conditional failure p12 directly (it is a ratio of the two
    phase outages, not an independent fade). The stratum where every node
    fails phase 1 leaves no relays and is treated as a void round, matching
    the fixed-schedule failure form and its enumeration oracle.
    """
    n = len(run.nodes)
    t1 = t1 if t1 is not None else 2.0 * n * (packet_bits + 1) / chan.rate_bps
    t2 = t2 if t2 is not None else n * (packet_bits + 1) / chan.rate_bps
    # `real` on each window, written out: it runs once per run, like `_Run.__init__`'s check.
    if not (0 < t1 < math.inf and 0 < t2 < math.inf):
        raise ValueError(f"Occupy CoW's windows t1 and t2 must lie in (0, inf), got {t1!r} and {t2!r}")
    # Phase 1 moves the whole shape's bits in t1: its session rate on this link.
    phase1_ok = _attempt_test(chan, n * (packet_bits + 1) / t1)
    fades = run.link_draws(_fades, 1, run.nodes, run.carried)

    # Each layout entry is one node's flow: (task, 0, node).
    survivors: list[tuple[int, int, str]] = []
    stragglers: list[tuple[int, int, str]] = []
    for entry in run.layout:
        task, _, node = entry
        ok = run.attempt("transmit", node, CONTROLLER, task, 0, phase1_ok(fades[node]), 1)
        (survivors if ok else stragglers).append(entry)
    run.wait(t1)
    for task, _, node in survivors:
        run.deliver(task, 0, node)

    # Rescued stragglers arrive, and dispatch, at the end of phase 2.
    run.wait(t2)
    if survivors and stragglers:
        p12 = _rescue_failure(n, packet_bits, chan, t1, t2)
        rescues = run.draws(_uniforms, len(stragglers), 4)
        for task, _, node in stragglers:
            if run.attempt("retransmit", FLOOD, CONTROLLER, task, 0, next(rescues) >= p12, 1):
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


# Runs per `_Plan` of an estimate. Deriving a plan for 1024 seeds takes about 0.55 ms,
# most of it fixed per-call cost, and it holds 32 bytes per seed and path, so memory stays
# at one plan's rows however many runs the estimate makes.
_PLAN_RUNS = 1024


def estimate_pfail(runs: int, scenario: Callable[[int], SimTrace], seed: int) -> MonteCarloEstimate:
    """Fraction of runs with a communication failure, as a proportion that unpacks as (p, ci99).

    The scenario callable receives a per-run seed derived from the master
    seed; runs are independent streams and may be distributed freely. The
    runs' stream seeding words are derived in bulk, one plan per 1024 runs,
    which leaves every stream as it would be outside a plan. A run whose
    protocol, topology object and flow objects are those of the run before
    it in the same plan reuses that run's set-up. `runs` is an integer of at
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
