"""Figure dataset builders: evaluate the protocol models over parameter sweeps.

Each builder emits a long-form dataset (x, series, y, ci99) with rows sorted
by x within each series, plus a sanity predicate that guards the qualitative
shape the sweep is expected to reproduce (latency growth, failure-probability
monotonicity, the efficiency ordering, the optimum ridge).
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter

import numpy as np

from .cec import optimal_tcm_case3, ucc_case3, ucc_case3_at_optimum
from .channel import ChannelParams, derive_seed
from .config import FIGURE_TAGS, ExperimentConfig
from .protocols import (
    HarqParams,
    MonteCarloEstimate,
    NetworkShape,
    Protocol,
    harq_expected_rounds,
    harq_latency,
    occupycow_latency,
    occupycow_phase_probs,
    reflexup_latency,
    reflexup_pfail,
    srarq_latency,
)

__all__ = ["FigureDataset", "build_figure", "run_experiment", "write_dataset", "summarize"]

_X, _Y, _CI = itemgetter(0), itemgetter(2), itemgetter(3)  # a row's numeric fields


@dataclass
class FigureDataset:
    """Long-form plot data: one (x, series, y, ci99) row per point."""

    tag: str
    x_name: str
    y_name: str
    rows: list[tuple[float, str, float, float]]

    def grouped(self) -> dict[str, list[tuple[float, float]]]:
        """The (x, y) points of every series, in first-seen order, from one pass over the rows."""
        groups: dict[str, list[tuple[float, float]]] = {}
        for x, s, y, _ in self.rows:
            points = groups.get(s)
            if points is None:
                points = groups[s] = []
            points.append((x, y))
        return groups

    def series(self, name: str) -> list[tuple[float, float]]:
        return self.grouped().get(name, [])

    def series_names(self) -> list[str]:
        return list(self.grouped())

    def sort(self) -> None:
        self.rows.sort(key=itemgetter(1, 0))

    def check(self) -> None:
        """Raise RuntimeError naming the first row whose x, y or ci99 is not finite.

        A sum is finite only if every term is, as inf and nan carry through it, so
        three C-level column sums clear a dataset; only a non-finite total, or one
        that overflowed, pays the row scan that finds the row.
        """
        rows = self.rows
        if math.isfinite(sum(map(_X, rows)) + sum(map(_Y, rows)) + sum(map(_CI, rows))):
            return
        for x, s, y, ci in rows:
            if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(ci)):
                raise RuntimeError(f"{self.tag}: non-finite row ({x}, {s}, {y}, {ci})")


def _point_seed(master_seed: int, tag: str, index: int) -> int:
    """Deterministic per-sweep-point seed derived from (master seed, point)."""
    return derive_seed(master_seed, FIGURE_TAGS.index(tag), index)


def _harq_rounds(cfg: ExperimentConfig, tag: str) -> MonteCarloEstimate | None:
    """HARQ's expected-round estimate d_hat for one figure; None without HARQ.

    d_hat depends on the channel, Q and L, never on the network size, so one
    estimate, drawn with the seed of the figure's first sweep point, serves
    every point of the n_g sweep.
    """
    if Protocol.HARQ not in cfg.protocols:
        return None
    return harq_expected_rounds(
        cfg.channel(),
        HarqParams(cfg.harq_max_rounds, cfg.harq_diversity),
        cfg.trials,
        _point_seed(cfg.seed, tag, 0),
    )


def protocol_latency(
    cfg: ExperimentConfig,
    protocol: Protocol,
    shape: NetworkShape,
    chan: ChannelParams,
    t_cp: float,
    rounds: MonteCarloEstimate | None,
) -> tuple[float, float]:
    """(t_cm, ci99) of one protocol on the network `shape` over the link `chan`.

    The caller builds `shape` once per network size and `chan` once per
    figure, and passes both to every protocol. `rounds` is the figure's HARQ
    estimate from _harq_rounds; only HARQ reads it.
    """
    if protocol == Protocol.SELECTIVE_REPEAT_ARQ:
        return srarq_latency(shape, chan), 0.0
    if protocol == Protocol.HARQ:
        scale = shape.n_total * shape.packet_bits / chan.rate_bps
        return harq_latency(shape, chan, rounds.value), rounds.ci99 * scale
    if protocol == Protocol.OCCUPY_COW:
        t1, t2 = cfg.oc_windows(shape.n_sensors)
        return occupycow_latency(occupycow_phase_probs(shape, chan, t1, t2)), 0.0
    if protocol == Protocol.REFLEXUP:
        return reflexup_latency(shape, chan, cfg.cec(), t_cp).t_cm, 0.0
    raise ValueError(protocol)


def build_fig7(cfg: ExperimentConfig) -> FigureDataset:
    """Padded-slot efficiency surface over (t_cm, t_cp), one series per t_cp.

    Each series must peak within one grid step of its optimum, when the grid
    reaches that far.
    """
    cec = cfg.cec()
    t_cm_grid, t_cp_grid = cfg.fig7_grids()
    t_cms = t_cm_grid.tolist()
    step = t_cms[1] - t_cms[0]
    rows = []
    for t_cp in t_cp_grid.tolist():
        values = ucc_case3(t_cm_grid, t_cp, cec)
        series = f"tcp={t_cp:.6g}"
        rows.extend(zip(t_cms, repeat(series), values.tolist(), repeat(0.0)))
        ridge = t_cms[int(np.argmax(values))]
        expected = optimal_tcm_case3(t_cp, cec)
        if expected <= t_cms[-1] and abs(ridge - expected) > step:
            raise RuntimeError(
                f"fig7 ridge off: series {series} peaks at {ridge}, expected {expected}"
            )
    return FigureDataset("fig7_surface", "t_cm_s", "u_cc", rows)


def build_fig_ucc_vs_size(cfg: ExperimentConfig, tag: str, t_cp: float) -> FigureDataset:
    """Efficiency vs network size, one series per protocol.

    Baselines are charged their achieved uplink time. The edge server steers
    the two-phase adaptive protocol's window to the padded-slot optimum (its
    latency is capped there), so that series is the optimal-point efficiency
    at every size.
    """
    cec = cfg.cec()
    u_steered = ucc_case3_at_optimum(t_cp, cec)
    rounds = _harq_rounds(cfg, tag)
    chan = cfg.channel()
    rows = []
    for n_g in sorted(cfg.n_g_grid):
        shape = cfg.shape(n_g)
        for protocol in cfg.protocols:
            if protocol == Protocol.REFLEXUP:
                u = u_steered
            else:
                t_cm, _ = protocol_latency(cfg, protocol, shape, chan, t_cp, rounds)
                u = ucc_case3(t_cm, t_cp, cec)
            rows.append((float(n_g), protocol.value, float(u), 0.0))
    ds = FigureDataset(tag, "n_g", "u_cc", rows)
    _check_reflexup_dominates(ds)
    return ds


def _check_reflexup_dominates(ds: FigureDataset) -> None:
    groups = ds.grouped()
    ref = dict(groups.get(Protocol.REFLEXUP.value, ()))
    if not ref:
        return
    for name, points in groups.items():
        if name == Protocol.REFLEXUP.value:
            continue
        for x, y in points:
            if y > ref[x] + 1e-12:
                raise RuntimeError(
                    f"{ds.tag}: series {name} exceeds the adaptive protocol at n_g={x}"
                )


def build_fig11(cfg: ExperimentConfig) -> FigureDataset:
    """Uplink latency vs network size, one series per protocol."""
    rounds = _harq_rounds(cfg, "fig11_tcm")
    chan = cfg.channel()
    rows = []
    sizes = sorted(cfg.n_g_grid)
    shapes = [cfg.shape(n_g) for n_g in sizes]
    sensors = [shape.n_sensors for shape in shapes]
    for n_g, shape in zip(sizes, shapes):
        for protocol in cfg.protocols:
            t_cm, ci = protocol_latency(cfg, protocol, shape, chan, cfg.t_cp_fig11, rounds)
            rows.append((float(n_g), protocol.value, float(t_cm), float(ci)))
    ds = FigureDataset("fig11_tcm", "n_g", "t_cm_s", rows)
    for name, pts in ds.grouped().items():
        ys = [y for _, y in pts]
        if name == Protocol.REFLEXUP.value:
            # The steering target caps this series; it may plateau but never drop.
            if any(b < a - 1e-12 for a, b in zip(ys, ys[1:])):
                raise RuntimeError("fig11: adaptive-protocol latency decreased with size")
        # Two sizes that split into the same sensor count may tie.
        elif any(b < a or (b == a and m > k) for a, b, k, m in zip(ys, ys[1:], sensors, sensors[1:])):
            raise RuntimeError(f"fig11: series {name} is not strictly increasing where the sensors grow")
    return ds


def _reflexup_pfail_curve(cfg: ExperimentConfig, n_g: int) -> list[tuple[float, float]]:
    """(snr_db, end-to-end failure) of the adaptive protocol over the sorted SNR grid."""
    shape = cfg.shape(n_g)
    return [
        (snr, reflexup_pfail(shape, cfg.channel(snr), cfg.reflexup_t_vs, p_timeout=cfg.p_timeout))
        for snr in sorted(cfg.snr_grid_db)
    ]


def build_fig12(cfg: ExperimentConfig) -> FigureDataset:
    """Efficiency of the adaptive protocol vs SNR and vs task count.

    The SNR series discounts the optimal-point efficiency by the end-to-end
    failure probability (a failed loop contributes no useful computation);
    the task series evaluates the optimal-point efficiency as the task count
    grows.
    """
    rows = []
    u_star = ucc_case3_at_optimum(cfg.t_cp_fig12, cfg.cec())
    for snr, p_fail in _reflexup_pfail_curve(cfg, cfg.fig12_n_g):
        rows.append((float(snr), "ucc_vs_snr", float(u_star * (1.0 - p_fail)), 0.0))
    for n_tasks in sorted(cfg.task_grid):
        u = ucc_case3_at_optimum(cfg.t_cp_fig12, cfg.cec(n_tasks))
        rows.append((float(n_tasks), "ucc_vs_tasks", float(u), 0.0))
    ds = FigureDataset("fig12_ucc_snr_tasks", "x", "u_cc", rows)
    tasks = [y for x, y in ds.series("ucc_vs_tasks") if x >= 10]
    if any(b > a + 1e-15 for a, b in zip(tasks, tasks[1:])):
        raise RuntimeError("fig12: efficiency increased with task count")
    return ds


def build_fig13(cfg: ExperimentConfig) -> FigureDataset:
    """End-to-end failure probability vs SNR, one series per network size."""
    rows = []
    for n_g in cfg.fig13_n_g:
        series = f"n_g={n_g}"
        for snr, p in _reflexup_pfail_curve(cfg, n_g):
            rows.append((float(snr), series, float(p), 0.0))
    ds = FigureDataset("fig13_pfail", "snr_db", "p_fail", rows)
    for name, pts in ds.grouped().items():
        ys = [y for _, y in pts]
        if any(b > a + 1e-15 for a, b in zip(ys, ys[1:])):
            raise RuntimeError(f"fig13: series {name} is not non-increasing in SNR")
    return ds


_BUILDERS = {
    "fig7_surface": build_fig7,
    "fig9_ucc": lambda cfg: build_fig_ucc_vs_size(cfg, "fig9_ucc", cfg.t_cp_fig9),
    "fig10_ucc": lambda cfg: build_fig_ucc_vs_size(cfg, "fig10_ucc", cfg.t_cp_fig10),
    "fig11_tcm": build_fig11,
    "fig12_ucc_snr_tasks": build_fig12,
    "fig13_pfail": build_fig13,
}


def build_figure(cfg: ExperimentConfig, tag: str) -> FigureDataset:
    ds = _BUILDERS[tag](cfg)
    ds.sort()
    ds.check()
    return ds


def write_dataset(ds: FigureDataset, out_dir: str) -> str:
    """One CSV per dataset: <x>,series,<y>,ci99 with %.10g numeric formatting."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{ds.tag}.csv")
    body = "".join(["%.10g,%s,%.10g,%.10g\n" % row for row in ds.rows])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{ds.x_name},series,{ds.y_name},ci99\n{body}")
    return path


def summarize(ds: FigureDataset) -> list[str]:
    """min/max/argmax lines per series, for the run log."""
    lines = []
    for name, pts in ds.grouped().items():
        ys = [y for _, y in pts]
        best_x = max(pts, key=lambda p: p[1])[0]
        lines.append(
            f"{ds.tag:22s} {name:22s} n={len(pts):3d} "
            f"min={min(ys):.6g} max={max(ys):.6g} argmax_x={best_x:.6g}"
        )
    return lines


def run_experiment(cfg: ExperimentConfig) -> dict[str, FigureDataset]:
    """Build and persist every requested figure dataset.

    A failure in one figure is reported but does not abort the others; if any
    figure failed, a RuntimeError wrapping the collected reasons is raised at
    the end.
    """
    datasets: dict[str, FigureDataset] = {}
    failures: list[str] = []
    for tag in cfg.figures:
        try:
            ds = build_figure(cfg, tag)
            write_dataset(ds, cfg.out_dir)
            datasets[tag] = ds
        except Exception as exc:  # keep the remaining figures alive
            failures.append(f"{tag}: {exc}")
    if failures:
        raise RuntimeError("figure build failures:\n  " + "\n  ".join(failures))
    return datasets
