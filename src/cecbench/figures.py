"""Figure dataset builders: evaluate the protocol models over parameter sweeps.

Each builder emits a long-form dataset (x, series, y, ci99) with rows sorted
by x within each series, plus a sanity predicate that guards the qualitative
shape the sweep is expected to reproduce (latency growth, failure-probability
monotonicity, the efficiency ordering, the optimum ridge).
"""
from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter

import numpy as np

from .cec import optimal_tcm_case3, ucc_case3, ucc_case3_at_optimum
from .channel import ChannelParams
from .config import ExperimentConfig
from .protocols import HarqParams, MonteCarloEstimate, NetworkShape, Protocol, harq_expected_rounds, reflexup_pfail

__all__ = ["FigureDataset", "Sweep", "build_figure", "run_experiment", "write_dataset", "summarize"]

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


def _kept(method):
    """A `Sweep` method whose value is kept, per argument tuple, for the rest of the run.

    An error is not kept: the next read evaluates the quantity again and fails alike.
    """

    @functools.wraps(method)
    def kept(self, *args):
        key = (method.__name__, *args)
        if key not in self._values:
            self._values[key] = method(self, *args)
        return self._values[key]

    return kept


class Sweep:
    """The model quantities that the figures of one run share, each evaluated when a figure
    first reads it and then kept for the run.

    These are the channel, HARQ's expected-round estimate d_hat, the sorted
    network sizes and each size's NetworkShape, each baseline's uplink time per
    size, and ReFlexUp's failure curve per size. `run_experiment` builds one
    per run and passes it to every builder; `build_figure` given a config
    builds one for that figure alone, so it evaluates only what the figure
    reads. A quantity that raises fails each figure that reads it, with the
    same error, and no other.
    """

    def __init__(self, cfg: ExperimentConfig) -> None:
        self.cfg = cfg
        self._values: dict[tuple, object] = {}

    @_kept
    def channel(self) -> ChannelParams:
        return self.cfg.channel()

    @_kept
    def rounds(self) -> MonteCarloEstimate | None:
        """HARQ's expected-round estimate d_hat; None without HARQ.

        d_hat depends on the channel, Q and L, never on the network size or
        the figure, so one estimate serves every point of every n_g sweep. Its
        seed changes no value, so none is passed.
        """
        cfg = self.cfg
        if Protocol.HARQ not in cfg.protocols:
            return None
        params = HarqParams(cfg.harq_max_rounds, cfg.harq_diversity)
        return harq_expected_rounds(self.channel(), params, cfg.trials)

    @_kept
    def sizes(self) -> tuple[int, ...]:
        """The n_g sweep, ascending."""
        return tuple(sorted(self.cfg.n_g_grid))

    @_kept
    def shape(self, n_g: int) -> NetworkShape:
        return self.cfg.shape(n_g)

    @_kept
    def uplink_time(self, protocol: Protocol, n_g: int) -> float:
        """A baseline's uplink time at `n_g` nodes. No baseline reads t_cp, so every figure
        charges the same time; ReFlexUp's, steered by t_cp, is each figure's own. Its inputs
        are read in the order the figures read them, so a figure fails on the same first error."""
        rounds = self.rounds()
        chan = self.channel()
        shape = self.shape(n_g)
        return self.cfg.uplink_time(protocol, shape, chan, None if rounds is None else rounds.value, None)

    @_kept
    def reflexup_pfail_curve(self, n_g: int) -> tuple[tuple[float, float], ...]:
        """(snr_db, end-to-end failure) of the adaptive protocol at `n_g` nodes over the
        sorted SNR grid."""
        cfg = self.cfg
        shape = self.shape(n_g)
        return tuple(
            (snr, reflexup_pfail(shape, cfg.channel(snr), cfg.reflexup_t_vs, p_timeout=cfg.p_timeout))
            for snr in sorted(cfg.snr_grid_db)
        )


def build_fig7(sweep: Sweep) -> FigureDataset:
    """Padded-slot efficiency surface over (t_cm, t_cp), one series per t_cp.

    Each series must peak within one grid step of its optimum, when the grid
    reaches that far.
    """
    cfg = sweep.cfg
    cec = cfg.cec()
    t_cm_grid, t_cp_grid = cfg.fig7_grids()
    t_cms = t_cm_grid.tolist()
    # The grid's first point is one step; `t_cms[1] - t_cms[0]` can round an ulp below it, and
    # then a ridge on the first point, with the optimum below it, reads as off the grid.
    step = t_cms[0]
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


def build_fig_ucc_vs_size(sweep: Sweep, tag: str, t_cp: float) -> FigureDataset:
    """Efficiency vs network size, one series per protocol.

    Baselines are charged their achieved uplink time, which no t_cp steers,
    at this figure's t_cp. The edge server steers the two-phase adaptive
    protocol's window to the padded-slot optimum (its latency is capped
    there), so that series is the optimal-point efficiency at every size.
    """
    cfg = sweep.cfg
    cec = cfg.cec()
    u_steered = ucc_case3_at_optimum(t_cp, cec)
    rows = []
    for n_g in sweep.sizes():
        for protocol in cfg.protocols:
            if protocol == Protocol.REFLEXUP:
                u = u_steered
            else:
                u = ucc_case3(sweep.uplink_time(protocol, n_g), t_cp, cec)
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


def build_fig11(sweep: Sweep) -> FigureDataset:
    """Uplink latency vs network size, one series per protocol: each baseline's time as
    it is, and ReFlexUp's steered toward the optimum at t_cp_fig11."""
    cfg = sweep.cfg
    rounds = sweep.rounds()
    chan = sweep.channel()
    rows = []
    sizes = sweep.sizes()
    shapes = [sweep.shape(n_g) for n_g in sizes]
    sensors = [shape.n_sensors for shape in shapes]
    for n_g, shape in zip(sizes, shapes):
        for protocol in cfg.protocols:
            if protocol == Protocol.REFLEXUP:
                t_cm = cfg.uplink_time(protocol, shape, chan, None, cfg.t_cp_fig11)
            else:
                t_cm = sweep.uplink_time(protocol, n_g)
            ci = 0.0
            if protocol == Protocol.HARQ:  # linear in d_hat, so d_hat's half-width scales alike
                ci = rounds.ci99 * (shape.n_total * shape.packet_bits / chan.rate_bps)
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


def build_fig12(sweep: Sweep) -> FigureDataset:
    """Efficiency of the adaptive protocol vs SNR and vs task count.

    The SNR series discounts the optimal-point efficiency by the end-to-end
    failure probability (a failed loop contributes no useful computation);
    the task series evaluates the optimal-point efficiency as the task count
    grows.
    """
    cfg = sweep.cfg
    rows = []
    u_star = ucc_case3_at_optimum(cfg.t_cp_fig12, cfg.cec())
    for snr, p_fail in sweep.reflexup_pfail_curve(cfg.fig12_n_g):
        rows.append((float(snr), "ucc_vs_snr", float(u_star * (1.0 - p_fail)), 0.0))
    for n_tasks in sorted(cfg.task_grid):
        u = ucc_case3_at_optimum(cfg.t_cp_fig12, cfg.cec(n_tasks))
        rows.append((float(n_tasks), "ucc_vs_tasks", float(u), 0.0))
    ds = FigureDataset("fig12_ucc_snr_tasks", "x", "u_cc", rows)
    tasks = [y for x, y in ds.series("ucc_vs_tasks") if x >= 10]
    if any(b > a + 1e-15 for a, b in zip(tasks, tasks[1:])):
        raise RuntimeError("fig12: efficiency increased with task count")
    return ds


def build_fig13(sweep: Sweep) -> FigureDataset:
    """End-to-end failure probability vs SNR, one series per network size."""
    rows = []
    for n_g in sweep.cfg.fig13_n_g:
        series = f"n_g={n_g}"
        for snr, p in sweep.reflexup_pfail_curve(n_g):
            rows.append((float(snr), series, float(p), 0.0))
    ds = FigureDataset("fig13_pfail", "snr_db", "p_fail", rows)
    for name, pts in ds.grouped().items():
        ys = [y for _, y in pts]
        if any(b > a + 1e-15 for a, b in zip(ys, ys[1:])):
            raise RuntimeError(f"fig13: series {name} is not non-increasing in SNR")
    return ds


_BUILDERS = {
    "fig7_surface": build_fig7,
    "fig9_ucc": lambda sweep: build_fig_ucc_vs_size(sweep, "fig9_ucc", sweep.cfg.t_cp_fig9),
    "fig10_ucc": lambda sweep: build_fig_ucc_vs_size(sweep, "fig10_ucc", sweep.cfg.t_cp_fig10),
    "fig11_tcm": build_fig11,
    "fig12_ucc_snr_tasks": build_fig12,
    "fig13_pfail": build_fig13,
}


def build_figure(cfg: ExperimentConfig | Sweep, tag: str) -> FigureDataset:
    """The sorted, checked dataset `tag` of the config `cfg`, or of a run's `Sweep`, which
    shares its quantities with the run's other figures."""
    ds = _BUILDERS[tag](cfg if isinstance(cfg, Sweep) else Sweep(cfg))
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
    """Build and persist every requested figure dataset, all from one `Sweep` of `cfg`.

    A failure in one figure is reported but does not abort the others; if any
    figure failed, a RuntimeError wrapping the collected reasons is raised at
    the end.
    """
    sweep = Sweep(cfg)
    datasets: dict[str, FigureDataset] = {}
    failures: list[str] = []
    for tag in cfg.figures:
        try:
            ds = build_figure(sweep, tag)
            write_dataset(ds, cfg.out_dir)
            datasets[tag] = ds
        except Exception as exc:  # keep the remaining figures alive
            failures.append(f"{tag}: {exc}")
    if failures:
        raise RuntimeError("figure build failures:\n  " + "\n  ".join(failures))
    return datasets
