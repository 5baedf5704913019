"""One benchmark process: set up a workload, measure it, report as JSON.

Started by run.py, which pins the BLAS threads and puts ``src`` on the path
before this interpreter imports numpy. Protocol on stdout: a line ``READY``
once set-up is done (the launcher times set-up up to it), then one line
``RESULT <json>``. Anything else the program prints goes to stderr.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from importlib import metadata
from time import perf_counter
from typing import NamedTuple

_t0 = perf_counter()
import cecbench  # noqa: E402  (timed: part of set-up)

IMPORT_S = perf_counter() - _t0
IMPORTS_SCIPY_STATS = "scipy.stats" in sys.modules

import numpy as np  # noqa: E402  (already loaded by cecbench)

from cecbench import channel, config, fdd, protocols  # noqa: E402
from cecbench import cec as cec_mod  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from tracing import SpanSummary, Tracer  # noqa: E402
from workloads import TRACE_PROTOCOLS, WORKLOADS, count_metrics, derive_seed  # noqa: E402

Protocol = protocols.Protocol
LAYERS = ("perfbench", "cli", "config", "figures", "protocols", "channel", "sim", "fdd")
FIGURE_TAGS = config.FIGURE_TAGS

# The machine's speed drifts by a quarter either way over seconds, as other
# tenants come and go. Each operation's time is therefore scaled by a fixed
# reference kernel timed right before and right after it, and reported in
# reference seconds: the time the operation would take if the kernel took its
# reference time, which is about its time on the 2-core KVM Xeon this
# benchmark was defined on. Interpreter-bound and array-bound code slow down
# by different amounts, so each workload uses the kernel closest to its work.


class _Event(NamedTuple):
    slot: int
    kind: str
    src: str
    dst: str
    task: int
    packet: int
    outcome: str


def interpreter_kernel() -> None:
    """Seeded generator set-up, scalar draws, small records, dict updates, CSV
    formatting and small dot products, as in sim, fdd and their exports."""
    events = []
    table: dict[tuple[int, int], int] = {}
    for i in range(300):
        rng = np.random.default_rng(np.random.SeedSequence(12345, spawn_key=(i, 1)))
        for j in range(8):
            ok = math.log2(1.0 + 10.0 * float(rng.exponential(1.0))) > 0.5
            events.append(_Event(i, "transmit", "v1", "C", i, j, "ok" if ok else "lost"))
            table[i & 15, j] = table.get((i & 15, j), 0) + ok
    "".join(f"{e.slot},{e.kind},{e.src},{e.dst},{e.task},{e.packet},{e.outcome}\n" for e in events)
    for row in np.random.default_rng(7).standard_normal((1500, 52)):
        float(row @ row)


def array_kernel() -> None:
    """Bulk fade draws and reductions, as in the HARQ Monte-Carlo."""
    rng = np.random.default_rng(12345)
    for _ in range(6):  # in chunks, to stay out of the peak memory
        fades = rng.exponential(1.0, size=(10000, 7, 2))
        np.cumsum(np.log2(1.0 + 1e4 * fades).mean(axis=2), axis=1)


# kernel name -> (kernel, reference seconds)
KERNELS = {"interpreter": (interpreter_kernel, 0.013), "array": (array_kernel, 0.025)}


def calibrate(kernel) -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


class Measurement:
    """Timed operations of one measuring pass, with their failures."""

    def __init__(self) -> None:
        # (kind, wall seconds, reference seconds, items), correct operations only
        self.ops: list[tuple[int, float, float, int]] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def median_round(self, reference: bool = True) -> tuple[float, int]:
        """(seconds, items) of a round built from each kind's median operation."""
        kinds: dict[int, list[tuple[float, int]]] = {}
        for kind, wall, ref, items in self.ops:
            kinds.setdefault(kind, []).append((ref if reference else wall, items))
        seconds = items = 0
        for samples in kinds.values():
            seconds += statistics.median(dt for dt, _ in samples)
            items += statistics.median(n for _, n in samples)
        return seconds, items

    def rate(self, reference: bool = True) -> float:
        seconds, items = self.median_round(reference)
        return items / seconds


def measure(wl, seconds: float, tracer: Tracer | None, first_op: int = 0) -> Measurement:
    """Run whole rounds until `seconds` have passed; at least one round."""
    m = Measurement()
    kernel, ref_s = KERNELS[wl.kernel]
    start = perf_counter()
    cal_before = calibrate(kernel)
    while not m.ops or perf_counter() - start < seconds:
        for kind in range(wl.round_len):
            i = first_op + m.attempted
            m.attempted += 1
            if tracer is not None:
                tracer.op = i
                span = tracer.open("perfbench.op")
            t0 = perf_counter()
            try:
                result = wl.op(i)
            except Exception:  # an operation that raises counts as failed
                m.failed += 1
                m.errors.append(traceback.format_exc(limit=3))
                continue
            finally:
                if tracer is not None:
                    tracer.close(span)
            dt = perf_counter() - t0
            cal_after = calibrate(kernel)
            ref = dt * ref_s / ((cal_before + cal_after) / 2)
            cal_before = cal_after
            error = wl.check(i, result)
            if error is not None:
                m.failed += 1
                m.errors.append(error)
                continue
            m.ops.append((kind, dt, ref, wl.items(result)))
        if m.failed == m.attempted:
            break  # nothing succeeds; stop rather than loop on failures
    return m


def _per_call(fn, calls: int, repeats: int = 5) -> float:
    """Median seconds per call of fn() over `repeats` batches of `calls`."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        times.append((perf_counter() - t0) / calls)
    return statistics.median(times)


def import_scipy_stats_s(env: dict) -> float:
    """Seconds to import scipy.stats (with what it pulls in) in a fresh
    interpreter; 0 when `import cecbench` does not load it."""
    if not IMPORTS_SCIPY_STATS:
        return 0.0
    code = "import time; t = time.perf_counter(); import scipy.stats; print(time.perf_counter() - t)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    return float(proc.stdout)


def probes(seed: int) -> dict[str, float]:
    """Fixed micro-measurements of single layer calls, the same on every workload."""
    chan = channel.ChannelParams(snr_db=40.0, bandwidth_hz=20e6, rate_bps=200e3)
    cec = cec_mod.CecConfig(n_tasks=100, k_rbs=200, c=1.5, c0=1.5)
    shape = protocols.split_nodes(250, 0.2, 176)
    oc_shape = protocols.NetworkShape(7, 6, 1, 6.0, 176)
    oc = protocols.occupycow_phase_probs(oc_shape, chan, 5e-6, 2.5e-6)
    harq = protocols.HarqParams(7, 2)
    rng = np.random.default_rng(derive_seed(seed, "probe"))
    defaults = config.ExperimentConfig()
    out = {
        "cec.ucc_case3_us": _per_call(lambda: cec_mod.ucc_case3(0.05, 0.005, cec), 2000) * 1e6,
        "cec.optimal_tcm_case3_us": _per_call(lambda: cec_mod.optimal_tcm_case3(0.005, cec), 2000) * 1e6,
        "channel.spawn_stream_us": _per_call(lambda: channel.spawn_stream(seed, 1, 2), 500) * 1e6,
        "channel.outage_probability_us": _per_call(lambda: channel.outage_probability(chan), 2000) * 1e6,
        "channel.sample_fades_ns": _per_call(lambda: channel.sample_fades(rng, 100_000), 3) / 100_000 * 1e9,
        "protocols.reflexup_pfail_us": _per_call(lambda: protocols.reflexup_pfail(shape, chan, 1e-5), 1000) * 1e6,
        "protocols.occupycow_pfail_us": _per_call(lambda: protocols.occupycow_pfail(6, oc), 200) * 1e6,
        "protocols.occupycow_phase_probs_us": _per_call(
            lambda: protocols.occupycow_phase_probs(oc_shape, chan, 5e-6, 2.5e-6), 1000
        ) * 1e6,
        "protocols.harq_pfail_ns_per_trial": _per_call(
            lambda: protocols.harq_pfail(chan, harq, 100_000, seed=seed), 1, repeats=3
        ) / 100_000 * 1e9,
        "protocols.harq_expected_rounds_ms": _per_call(
            lambda: protocols.harq_expected_rounds(chan, harq, defaults.trials, seed=seed), 1, repeats=3
        ) * 1e3,
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "default.ini")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("[experiment]\n")
        out["config.validate_config_ms"] = _per_call(lambda: config.validate_config(path), 50) * 1e3
    fault = fdd.MeanShift((0, 5, 10, 20, 30), 4.0)
    train = []

    def generate():
        train[:] = fdd.generate_synthetic_te(6000, 1000, fault, seed=seed)[0]

    out["fdd.generate_synthetic_te_ms"] = _per_call(generate, 1, repeats=3) * 1e3
    out["fdd.fit_pca_ms"] = _per_call(lambda: fdd.fit_pca(train, 17, 0.01), 1, repeats=3) * 1e3
    return out


def span_metrics(wl, summary: SpanSummary, n_ops: int) -> dict[str, float]:
    """Per-layer metrics taken from the traced operations' spans."""
    mean = summary.mean
    out = {f"figures.build_ms.{tag}": mean(f"figures.build.{tag}") * 1e3 for tag in FIGURE_TAGS}
    out["figures.write_dataset_ms"] = mean("figures.write_dataset") * 1e3
    runs_in_estimates = 0
    for p in Protocol:
        out[f"sim.run_us.{p.value}"] = summary.mean_under(f"sim.run.{p.value}", "sim.estimate_pfail") * 1e6
        runs_in_estimates += summary.by_parent[(f"sim.run.{p.value}", "sim.estimate_pfail")][0]
    out["sim.estimate_pfail_self_us"] = (
        summary.self_time["sim.estimate_pfail"] / runs_in_estimates * 1e6 if runs_in_estimates else 0.0
    )
    for p in TRACE_PROTOCOLS:
        out[f"sim.trace_run_ms.{p.value}"] = (
            summary.mean_under(f"sim.run.{p.value}", "sim.estimate_pfail", negate=True) * 1e3
        )
    out["sim.export_trace_ms"] = mean("sim.export_trace") * 1e3
    out["sim.measure_cec_us"] = mean("sim.measure_cec") * 1e6
    rows = getattr(wl, "n_normal", 0) + getattr(wl, "n_fault", 0)
    for metric, span in (
        ("fdd.ingest_csv_us", "fdd.ingest_csv"),
        ("fdd.score_us", "fdd.score_stream"),
        ("fdd.write_detections_us", "fdd.write_detections"),
    ):
        out[metric] = mean(span) / rows * 1e6 if rows else 0.0
    out["fdd.residual_contributions_us"] = mean("fdd.residual_contributions") * 1e6
    for layer in LAYERS:
        out[f"self_ms_per_op.{layer}"] = summary.layer_self.get(layer, 0.0) / n_ops * 1e3
    op_time = summary.total["perfbench.op"]
    out["trace.coverage"] = summary.child_of_ops / op_time if op_time else 0.0
    out["trace.ops"] = n_ops
    return out


def environment(args) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, check=True
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown (not a git checkout)"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "blas_threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": "tiny" if args.tiny else "full",
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args()

    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory() as tmp:
        wl = WORKLOADS[args.workload](args.seed, args.tiny, tmp)
        print("READY", flush=True)
        # Set-up is import- and interpreter-bound: its time is scaled too.
        slowdown = statistics.median(calibrate(interpreter_kernel) for _ in range(3))
        print(f"CAL {slowdown / KERNELS['interpreter'][1]!r}", flush=True)
        if args.setup_only:
            return 0
        wl.prepare()
        lines = [f"env: {json.dumps(environment(args), sort_keys=True)}"]
        if tracer is None:
            run = measure(wl, args.seconds, None)
            metrics = {"items_per_s": run.rate()} if run.ops else {}
        else:
            plain = measure(wl, args.seconds / 2, None)
            missing = tracer.install()
            try:
                run = measure(wl, args.seconds / 2, tracer, first_op=plain.attempted)
            finally:
                tracer.uninstall()
            if missing:
                lines.append(f"trace: not instrumented (absent): {', '.join(missing)}")
            traced_ops = set(range(plain.attempted, plain.attempted + run.attempted))
            metrics = span_metrics(wl, SpanSummary(tracer.spans, traced_ops), run.attempted)
            if plain.ops and run.ops:
                base, traced = plain.median_round()[0], run.median_round()[0]
                metrics["trace.overhead_pct"] = (traced / base - 1.0) * 100.0
                lines.append(
                    f"trace: overhead {metrics['trace.overhead_pct']:.2f}% (round time "
                    f"{base:.6g} s over {len(plain.ops)} untraced operations, {traced:.6g} s over "
                    f"{len(run.ops)} traced ones); {len(tracer.spans)} spans, "
                    f"coverage {metrics['trace.coverage']:.4f}"
                )
            metrics.update(probes(derive_seed(args.seed, "probes")))
            metrics["cecbench.import_s"] = IMPORT_S
            metrics["cecbench.import_scipy_stats_s"] = import_scipy_stats_s(dict(os.environ))
            if args.spans_out:
                tracer.write(args.spans_out)
                lines.append(f"trace: spans written to {args.spans_out}")
            run.attempted += plain.attempted
            run.failed += plain.failed
            run.errors += plain.errors
        metrics.update(count_metrics(wl) if tracer else wl.counts())
        if run.ops:
            rounds = len(run.ops) // wl.round_len
            lines.append(
                f"{wl.alias}: {run.rate():.6g} {wl.item} per reference second, "
                f"{run.rate(reference=False):.6g} per wall second, from median operation times "
                f"over {len(run.ops)} operations ({rounds} rounds of {wl.round_len})"
                + (f"; figures_s {1.0 / run.rate():.6g} s" if wl.alias == "figures_s" else "")
            )
        lines.extend(f"error: {e.strip()}" for e in run.errors[:5])
    result = {
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "lines": lines,
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
