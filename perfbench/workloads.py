"""The four benchmark workloads: set-up, one timed operation, output checks.

Every input is generated here from the workload seed; the program only sees
those inputs. Timed calls go through their module attribute
(``sim.run_reflexup``, never a name imported from it), so that the traced
run's wrappers see them.

A workload runs its operations in rounds. ``items_per_s`` is taken per round
(items done in the round over the round's operation time) and reported as the
median over rounds, so a round holds one of each kind of operation.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import shutil

from cecbench import cli, config, fdd, sim
from cecbench.cec import CecConfig
from cecbench.channel import ChannelParams, outage_probability
from cecbench.protocols import (
    HarqParams,
    NetworkShape,
    Protocol,
    harq_pfail,
    occupycow_pfail,
    occupycow_phase_probs,
    reflexup_pfail,
    srarq_pfail,
)


def derive_seed(seed: int, tag: str) -> int:
    """A 32-bit seed for one input, fixed by the workload seed and a tag."""
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _log_binom_pmf(k: int, n: int, p: float) -> float:
    if p <= 0.0:
        return 0.0 if k == 0 else -math.inf
    if p >= 1.0:
        return 0.0 if k == n else -math.inf
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * math.log(p) + (n - k) * math.log1p(-p)
    )


def binom_tail(k: int, n: int, p: float, upper: bool) -> float:
    """P(X >= k) if upper else P(X <= k), for X ~ Binomial(n, p)."""
    ks = range(k, n + 1) if upper else range(0, k + 1)
    return min(1.0, sum(math.exp(_log_binom_pmf(j, n, p)) for j in ks))


class Workload:
    name = ""
    round_len = 1
    item = ""  # what items_per_s counts
    kernel = "interpreter"  # the calibration kernel closest to the operation's work
    alias = ""  # what items_per_s (or its inverse) is called on this workload

    def prepare(self) -> None:
        """Untimed work after set-up and before measuring (check references)."""

    def op(self, i: int):
        raise NotImplementedError

    def items(self, result) -> int:
        raise NotImplementedError

    def check(self, i: int, result) -> str | None:
        """None when the operation's output is correct, else the reason."""
        raise NotImplementedError

    def counts(self) -> dict[str, float]:
        """Exact per-seed counts of the last checked operations."""
        return {}


# ----------------------------------------------------------------- figures


class Figures(Workload):
    """`cec-bench run` on the default config, all six figures."""

    name = "figures"
    item = "figure runs"
    kernel = "array"
    alias = "figures_s"

    def __init__(self, seed: int, tiny: bool, tmp: str) -> None:
        self.tmp = tmp
        self.cfg_path = os.path.join(tmp, "figures.ini")
        lines = ["[experiment]", f"seed = {derive_seed(seed, 'figures')}"]
        if tiny:
            lines += ["trials = 10000", "[sweep]", "n_g_grid = 50 100 150"]
        with open(self.cfg_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        self.cfg = config.validate_config(self.cfg_path)
        self.reference: dict[str, bytes] | None = None

    def op(self, i: int):
        out = os.path.join(self.tmp, f"figures-out-{i}")
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(["run", self.cfg_path, "--out", out])
        return rc, out, buf.getvalue()

    def items(self, result) -> int:
        return 1

    def check(self, i: int, result) -> str | None:
        rc, out, stdout = result
        try:
            if rc != 0:
                return f"cec-bench run exited {rc}"
            if f"wrote {len(self.cfg.figures)} dataset(s)" not in stdout:
                return "run summary missing from stdout"
            files = {}
            for tag in self.cfg.figures:
                with open(os.path.join(out, f"{tag}.csv"), "rb") as fh:
                    files[tag] = fh.read()
            if sorted(os.listdir(out)) != sorted(f"{t}.csv" for t in self.cfg.figures):
                return f"unexpected output listing {sorted(os.listdir(out))}"
            if any(data.count(b"\n") < 2 for data in files.values()):
                return "a figure CSV has no data rows"
            if self.reference is None:
                self.reference = files
            elif files != self.reference:
                changed = [t for t in files if files[t] != self.reference[t]]
                return f"CSVs differ from the first run of this seed: {changed}"
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def counts(self) -> dict[str, float]:
        return {"protocols.harq_calls_per_figures_run": harq_calls_per_run(self.cfg)}


# ------------------------------------------------------------------- pfail

M_BITS = 176
TABLE_CHAN = ChannelParams(snr_db=40, bandwidth_hz=20e6, rate_bps=200e3)
PFAIL_SNRS = (10.0, 40.0)
PFAIL_RUNS = 1000  # estimate_pfail's minimum
HARQ_REF_TRIALS = 20_000
# Two-sided tail probability below which a failure count is implausible for
# a correct simulator. Far below 1/(points * seeds) for any seed count used.
PFAIL_TAIL = 1e-9
OC_N, OC_T1, OC_T2 = 6, 5e-6, 2.5e-6
RFU_T_VS = 1e-5
# Computed from the scenario shapes: streams spawned per simulator run.
# SR: one per sensor plus the timeout stream; HARQ: one per sensor;
# Occupy CoW: one per node plus the rescue stream; ReFlexUp: one per sensor
# and per relay plus the timeout stream.
STREAMS_PER_RUN = {
    Protocol.SELECTIVE_REPEAT_ARQ: 1 + 1,
    Protocol.HARQ: 1,
    Protocol.OCCUPY_COW: OC_N + 1,
    Protocol.REFLEXUP: 1 + 1 + 1,
}


class _Point:
    """One criterion-4 estimate: its scenario and its analytic reference."""

    def __init__(self, protocol: Protocol, snr: float, seed: int) -> None:
        self.protocol, self.snr, self.seed = protocol, snr, seed
        self.reference: tuple[float, float] | None = None  # (p, its own stderr)
        chan = TABLE_CHAN.with_snr(snr)
        if protocol == Protocol.SELECTIVE_REPEAT_ARQ:
            topo = sim.star_topology(1)
            flows = [sim.FlowSpec(0, topo.sensors, 1, 1.0, deadline=1.5 * M_BITS / chan.rate_bps)]
            self.scenario = lambda s: sim.run_baseline(
                protocol, topo, flows, chan, s, p_timeout=1e-4, record_events=False
            )
            self.analytic = lambda: (srarq_pfail(1e-4, outage_probability(chan)), 0.0)
        elif protocol == Protocol.HARQ:
            topo = sim.star_topology(1)
            flows = [sim.FlowSpec(0, topo.sensors, 1, 1.0, deadline=10.0)]
            self.scenario = lambda s: sim.run_baseline(
                protocol, topo, flows, chan, s, harq=HarqParams(7, 2), record_events=False
            )

            def harq_reference():
                est = harq_pfail(chan, HarqParams(7, 2), HARQ_REF_TRIALS, seed=seed)
                return est.value, est.stderr

            self.analytic = harq_reference
        elif protocol == Protocol.OCCUPY_COW:
            shape = NetworkShape(OC_N + 1, OC_N, 1, float(OC_N), M_BITS)
            topo = sim.star_topology(OC_N)
            flows = [sim.FlowSpec(i, (f"v{i+1}",), 1, 1.0, deadline=1.0) for i in range(OC_N)]
            self.scenario = lambda s: sim.run_baseline(
                protocol, topo, flows, chan, s, oc_t1=OC_T1, oc_t2=OC_T2, record_events=False
            )
            self.analytic = lambda: (
                occupycow_pfail(OC_N, occupycow_phase_probs(shape, chan, OC_T1, OC_T2)),
                0.0,
            )
        else:
            shape = NetworkShape(2, 1, 1, 1.0, M_BITS)
            session_rate = M_BITS * (shape.relay_fanout + 1) / RFU_T_VS
            chan = ChannelParams(snr_db=snr, bandwidth_hz=20e6, rate_bps=session_rate)
            topo = sim.relay_topology(1, 1)
            cec = CecConfig(n_tasks=1, k_rbs=4, c=1.0, c0=0.05)
            flows = [sim.FlowSpec(0, topo.sensors, 1, 1.0, deadline=2.4 * M_BITS / session_rate)]
            self.scenario = lambda s: sim.run_reflexup(
                topo, flows, chan, cec, seed=s, t_cp=0.005, p_timeout=1e-4, record_events=False
            )
            self.analytic = lambda: (reflexup_pfail(shape, chan, t_vs=RFU_T_VS, p_timeout=1e-4), 0.0)


class Pfail(Workload):
    """Criterion-4 failure estimates: four protocols at 10 and 40 dB."""

    name = "pfail"
    item = "simulator runs"
    alias = "pfail_runs_per_s"

    def __init__(self, seed: int, tiny: bool, tmp: str) -> None:
        self.points = [
            _Point(protocol, snr, derive_seed(seed, f"pfail:{protocol.value}:{snr}"))
            for snr in PFAIL_SNRS
            for protocol in Protocol
        ]
        self.round_len = len(self.points)
        self.failures: dict[int, int] = {}  # point index -> failed runs

    def prepare(self) -> None:
        for point in self.points:
            point.reference = point.analytic()

    def op(self, i: int):
        point = self.points[i % len(self.points)]
        p, _ = sim.estimate_pfail(PFAIL_RUNS, point.scenario, seed=point.seed)
        return p

    def items(self, result) -> int:
        return PFAIL_RUNS

    def check(self, i: int, result) -> str | None:
        index = i % len(self.points)
        point = self.points[index]
        k = round(result * PFAIL_RUNS)
        if abs(k - result * PFAIL_RUNS) > 1e-6:
            return f"{point.protocol.value} {point.snr} dB: p={result} is not a count / {PFAIL_RUNS}"
        if self.failures.setdefault(index, k) != k:
            return f"{point.protocol.value} {point.snr} dB: {k} failures, earlier {self.failures[index]} for the same seed"
        p_ref, stderr = point.reference
        # The HARQ reference is itself a Monte-Carlo estimate: widen by 5 of its sigmas.
        p_lo = max(p_ref - 5.0 * stderr, 0.0)
        p_hi = min(p_ref + 5.0 * stderr, 1.0)
        if binom_tail(k, PFAIL_RUNS, p_hi, upper=True) < PFAIL_TAIL or binom_tail(
            k, PFAIL_RUNS, p_lo, upper=False
        ) < PFAIL_TAIL:
            return (
                f"{point.protocol.value} {point.snr} dB: {k}/{PFAIL_RUNS} failures "
                f"implausible for analytic p in [{p_lo:.3g}, {p_hi:.3g}]"
            )
        return None

    def counts(self) -> dict[str, float]:
        failed = {p: 0 for p in Protocol}
        for index, k in self.failures.items():
            failed[self.points[index].protocol] += k
        return {f"sim.failed_runs.{p.value}": k for p, k in failed.items()}


# ------------------------------------------------------------------- trace

TRACE_PROTOCOLS = (Protocol.REFLEXUP, Protocol.SELECTIVE_REPEAT_ARQ, Protocol.HARQ)


class Trace(Workload):
    """One large simulated cycle on the criterion-8 shape, over a lossy channel."""

    name = "trace"
    item = "trace events"
    alias = "trace_events_per_s"

    def __init__(self, seed: int, tiny: bool, tmp: str) -> None:
        n_sensors, n_relays, n_tasks = (40, 8, 3) if tiny else (360, 72, 12)
        # 0 dB at 200 kbps over 20 MHz: outage about 0.7% per attempt.
        self.chan = ChannelParams(snr_db=0.0, bandwidth_hz=20e6, rate_bps=200e3)
        self.cec = CecConfig(n_tasks=n_tasks, k_rbs=4 * n_tasks, c=1.0, c0=0.05)
        self.topo = sim.relay_topology(n_sensors, n_relays)
        # ReFlexUp and HARQ finish a cycle in about a third of a second per
        # task; Selective Repeat needs three airtimes per packet, so about
        # half of its tasks run out of deadline.
        deadline = n_tasks * n_sensors * M_BITS / self.chan.rate_bps * 1.4
        self.flows = sim.build_flows(self.topo, n_tasks, deadline=deadline)
        self.sim_seed = derive_seed(seed, "trace")
        self.paths = {p: os.path.join(tmp, f"trace-{p.value}.csv") for p in TRACE_PROTOCOLS}
        self.first: dict[str, float] | None = None
        self.last: dict[str, float] = {}

    def op(self, i: int):
        traces = {
            Protocol.REFLEXUP: sim.run_reflexup(
                self.topo, self.flows, self.chan, self.cec, seed=self.sim_seed, t_cp=0.005
            ),
            Protocol.SELECTIVE_REPEAT_ARQ: sim.run_baseline(
                Protocol.SELECTIVE_REPEAT_ARQ, self.topo, self.flows, self.chan, self.sim_seed
            ),
            Protocol.HARQ: sim.run_baseline(
                Protocol.HARQ, self.topo, self.flows, self.chan, self.sim_seed
            ),
        }
        cec = {}
        for protocol, trace in traces.items():
            sim.export_trace(trace, self.paths[protocol])
            cec[protocol] = sim.measure_cec(trace, self.cec, 0.005)
        return traces, cec

    def items(self, result) -> int:
        return sum(len(t.events) for t in result[0].values())

    def check(self, i: int, result) -> str | None:
        traces, cec = result
        counts = {}
        for protocol, trace in traces.items():
            with open(self.paths[protocol], encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            if not lines or lines[0] != sim.TRACE_HEADER:
                return f"{protocol.value}: exported trace lacks the header"
            if len(lines) != 1 + len(trace.events):
                return f"{protocol.value}: {len(lines) - 1} trace lines for {len(trace.events)} events"
            if len(trace.flows) != len(self.flows):
                return f"{protocol.value}: {len(trace.flows)} flow outcomes for {len(self.flows)} flows"
            bad = [o.task_id for o in trace.flows.values() if not 0 <= o.delivered <= o.required]
            if bad:
                return f"{protocol.value}: delivered outside [0, required] for tasks {bad}"
            if not math.isfinite(cec[protocol].u_cc):
                return f"{protocol.value}: non-finite loop efficiency"
            attempts = sum(o.attempts for o in trace.flows.values())
            delivered = sum(o.delivered for o in trace.flows.values())
            counts[f"sim.events_per_run.{protocol.value}"] = len(trace.events)
            counts[f"sim.attempts_per_run.{protocol.value}"] = attempts
            counts[f"sim.useful_attempt_ratio.{protocol.value}"] = delivered / attempts if attempts else 0.0
        if self.first is None:
            self.first = counts
        elif counts != self.first:
            return "trace counts differ from the first cycle of this seed"
        self.last = counts
        return None

    def counts(self) -> dict[str, float]:
        return dict(self.last)


# ----------------------------------------------------------------- monitor

FDD_ALPHA = 0.01
# A 4-sigma step on five variables. At the 3-sigma step of criterion 7 the
# share flagged falls below 95% on some seeds (a property of the synthetic
# processes, not of the scoring), which would make the check flaky.
FDD_FAULT = fdd.MeanShift(variables=(0, 5, 10, 20, 30), magnitude=4.0)


class Monitor(Workload):
    """Edge fault detection over one plant CSV export with a faulted tail."""

    name = "monitor"
    item = "plant samples"
    alias = "monitor_samples_per_s"

    def __init__(self, seed: int, tiny: bool, tmp: str) -> None:
        self.n_normal, self.n_fault = (2000, 200) if tiny else (6000, 1000)
        train, test = fdd.generate_synthetic_te(
            self.n_normal, self.n_fault, FDD_FAULT, seed=derive_seed(seed, "monitor")
        )
        self.model = fdd.fit_pca(train, n_components=17, alpha=FDD_ALPHA)
        self.csv_path = os.path.join(tmp, "plant.csv")
        self.out_path = os.path.join(tmp, "detections.csv")
        with open(self.csv_path, "w", encoding="utf-8") as fh:
            for sample in test:
                fh.write(",".join(repr(float(v)) for v in sample.values) + "\n")
        self.flagged = 0

    def op(self, i: int):
        samples = fdd.ingest_csv(self.csv_path)
        results = fdd.score_stream(self.model, samples)
        diagnoses = [
            fdd.residual_contributions(self.model, s)
            for s, r in zip(samples, results)
            if r.fault_flag
        ]
        fdd.write_detections(results, self.out_path)
        return results, diagnoses

    def items(self, result) -> int:
        return len(result[0])

    def check(self, i: int, result) -> str | None:
        results, diagnoses = result
        n = self.n_normal + self.n_fault
        if len(results) != n:
            return f"{len(results)} detections for {n} samples"
        flags = [r.fault_flag for r in results]
        false_alarms = sum(flags[: self.n_normal]) / self.n_normal
        if not FDD_ALPHA / 3 <= false_alarms <= 3 * FDD_ALPHA:
            return f"false-alarm rate {false_alarms:.4f} outside [{FDD_ALPHA / 3:.4f}, {3 * FDD_ALPHA}]"
        detected = sum(flags[self.n_normal:]) / self.n_fault
        if detected < 0.95:
            return f"only {detected:.3f} of the faulted tail flagged"
        if len(diagnoses) != sum(flags):
            return f"{len(diagnoses)} diagnoses for {sum(flags)} flagged samples"
        for diag in diagnoses:
            values = [v for _, v in diag]
            if len(diag) != self.model.n_vars or values != sorted(values, reverse=True):
                return "residual contributions not one per variable in descending order"
        with open(self.out_path, encoding="utf-8") as fh:
            rows = fh.read().splitlines()
        if len(rows) != 1 + n:
            return f"detections file has {len(rows) - 1} rows for {n} samples"
        self.flagged = sum(flags)
        return None

    def counts(self) -> dict[str, float]:
        rows = self.n_normal + self.n_fault
        return {"fdd.rows_per_op": rows, "fdd.flagged_share": self.flagged / rows}


WORKLOADS = {w.name: w for w in (Figures, Pfail, Trace, Monitor)}


def harq_calls_per_run(cfg: config.ExperimentConfig) -> int:
    """Computed from the grids, not counted: fig9, fig10 and fig11 each call
    harq_expected_rounds once per network size."""
    if Protocol.HARQ not in cfg.protocols:
        return 0
    return len({"fig9_ucc", "fig10_ucc", "fig11_tcm"} & set(cfg.figures)) * len(cfg.n_g_grid)


def count_metrics(wl: Workload) -> dict[str, float]:
    """Every count metric: the computed ones, and the workload's measured ones
    (0 for the counts of a layer this workload does not run)."""
    out: dict[str, float] = {f"sim.failed_runs.{p.value}": 0 for p in Protocol}
    for p in TRACE_PROTOCOLS:
        for name in ("events_per_run", "attempts_per_run", "useful_attempt_ratio"):
            out[f"sim.{name}.{p.value}"] = 0
    out["fdd.rows_per_op"] = out["fdd.flagged_share"] = 0
    out["protocols.harq_calls_per_figures_run"] = harq_calls_per_run(config.ExperimentConfig())
    out.update({f"channel.streams_per_run.{p.value}": n for p, n in STREAMS_PER_RUN.items()})
    out.update(wl.counts())
    return out
