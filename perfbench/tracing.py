"""In-memory spans recorded around calls into the cecbench layers.

The program carries no tracing of its own, so the benchmark wraps the module
attributes through which its calls (and the program's calls between layers)
are looked up. A span is (name, start, end, parent, op); its layer is the
part of the name before the first dot. Spans stay in memory until the run
ends and are then written out as CSV and reduced to self time per layer.
"""
from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter

# (module, attribute, span name). A callable name receives the call's
# arguments and returns the span name. The attribute is replaced where it is
# looked up: cli.validate_config is the binding cli.main uses, sim.spawn_stream
# the one the simulator's runners use.
INSTRUMENTED = (
    ("cecbench.cli", "main", "cli.main"),
    ("cecbench.cli", "validate_config", "config.validate_config"),
    ("cecbench.cli", "run_experiment", "figures.run_experiment"),
    ("cecbench.cli", "summarize", "figures.summarize"),
    ("cecbench.figures", "build_figure", lambda cfg, tag: f"figures.build.{tag}"),
    ("cecbench.figures", "write_dataset", "figures.write_dataset"),
    ("cecbench.figures", "harq_expected_rounds", "protocols.harq_expected_rounds"),
    ("cecbench.sim", "estimate_pfail", "sim.estimate_pfail"),
    ("cecbench.sim", "run_reflexup", "sim.run.reflexup"),
    ("cecbench.sim", "run_baseline", lambda tag, *a, **k: f"sim.run.{tag.value}"),
    ("cecbench.sim", "spawn_stream", "channel.spawn_stream"),
    ("cecbench.sim", "occupycow_phase_probs", "protocols.occupycow_phase_probs"),
    ("cecbench.sim", "export_trace", "sim.export_trace"),
    ("cecbench.sim", "measure_cec", "sim.measure_cec"),
    ("cecbench.fdd", "ingest_csv", "fdd.ingest_csv"),
    ("cecbench.fdd", "score_stream", "fdd.score_stream"),
    ("cecbench.fdd", "residual_contributions", "fdd.residual_contributions"),
    ("cecbench.fdd", "write_detections", "fdd.write_detections"),
)


class Tracer:
    """Span recorder for one single-threaded run."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.op = -1  # operation id stamped on new spans
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name(*args, **kwargs) if callable(name) else name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return wrapper

    def install(self) -> list[str]:
        """Wrap every instrumented attribute; returns the ones not found."""
        missing = []
        for module_name, attr, name in INSTRUMENTED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))
        return missing

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{op}\n")


class SpanSummary:
    """Durations, self times and parent names of the recorded spans."""

    def __init__(self, spans: list[list], ops: set[int]) -> None:
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        # (name, parent name) -> [calls, total seconds]
        self.by_parent: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0])
        self.layer_self: dict[str, float] = defaultdict(float)
        for i, (name, start, end, parent, op) in enumerate(spans):
            if op not in ops:
                continue
            dur = end - start
            self.calls[name] += 1
            self.total[name] += dur
            self.self_time[name] += dur - child[i]
            self.layer_self[name.split(".")[0]] += dur - child[i]
            entry = self.by_parent[(name, spans[parent][0] if parent >= 0 else "")]
            entry[0] += 1
            entry[1] += dur
        self.child_of_ops = sum(
            child[i] for i, s in enumerate(spans) if s[0] == "perfbench.op" and s[4] in ops
        )

    def mean(self, name: str) -> float:
        """Mean seconds per call, 0 when the workload never makes the call."""
        calls = self.calls.get(name, 0)
        return self.total[name] / calls if calls else 0.0

    def mean_under(self, name: str, parent: str, negate: bool = False) -> float:
        """Mean seconds per call of spans whose parent is (or, negated, is not) `parent`."""
        calls = total = 0
        for (n, p), (c, t) in self.by_parent.items():
            if n == name and (p == parent) != negate:
                calls += c
                total += t
        return total / calls if calls else 0.0
