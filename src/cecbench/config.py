"""Declarative experiment configuration.

Configs are flat INI files (section headers + typed key/value pairs) parsed
strictly: unknown sections or keys are rejected, every type error is located
by its key path, and every default that fills a missing key is echoed so a
rerun can be audited from the config alone. Defaults follow the evaluation
parameter set (20 MHz bandwidth, 200 kbps rate, 22-byte packets, SNR sweep
10-60 dB, 100 tasks, c0 = 1.5, timeout probability 1e-4, relay/sensor ratio
0.2).
"""
from __future__ import annotations

import configparser
import math
import sys
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from ._checks import integer, real
from .cec import CecConfig, ucc_case3
from .channel import ChannelParams, db_to_linear
from .protocols import (
    _MIN_TRIALS,
    NetworkShape,
    Protocol,
    harq_latency,
    occupycow_latency,
    occupycow_phase_probs,
    reflexup_latency,
    split_nodes,
    srarq_latency,
)

__all__ = [
    "FIGURE_TAGS",
    "ConfigError",
    "ExperimentConfig",
    "validate_config",
    "apply_override",
    "default_config",
]

FIGURE_TAGS = (
    "fig7_surface",
    "fig9_ucc",
    "fig10_ucc",
    "fig11_tcm",
    "fig12_ucc_snr_tasks",
    "fig13_pfail",
)


class ConfigError(ValueError):
    """Config validation failure; the message lists every located problem."""


def _float(interval: str = "(-inf, inf)"):
    """Parser of a number in `interval`, written like "(0, 1]". No config interval holds inf."""
    return lambda text: real("the value", float(text), interval)


def _int(minimum=None):
    """Parser of an integer, at least `minimum` when one is given."""
    return lambda text: integer("the value", int(text), minimum)


def _list(item):
    """Parser of a non-empty list of distinct values, each parsed by `item`."""

    def parse(text: str) -> tuple:
        values = tuple(item(t) for t in text.replace(",", " ").split())
        if not values:
            raise ValueError("expected a non-empty list")
        if len(set(values)) < len(values):
            raise ValueError("expected distinct values")
        return values

    return parse


def _names(known: dict, what: str):
    """Parser of a list of names from `known`, each mapped to its value."""

    def name(text: str):
        if text not in known:
            raise ValueError(f"unknown {what} {text!r}; known: {', '.join(known)}")
        return known[text]

    return _list(name)


def _path(text: str) -> str:
    """Parser of a non-empty path; an empty one names no directory to write."""
    if not text:
        raise ValueError("expected a non-empty path")
    return text


def _key(section: str, default, parse):
    """The field of the config key `[section] <field name>`."""
    return field(default=default, metadata={"section": section, "parse": parse})


_POSITIVE = "(0, inf)"


@dataclass
class ExperimentConfig:
    """Fully-resolved experiment description.

    Every field but `applied_defaults` is one config key: it declares the
    key's section, default and parser, and nothing else does. The methods
    `channel`, `cec` and `shape` are the one mapping from keys to the model
    objects that the sweeps and the validation build, with `oc_windows` and
    `fig7_grids` the times they sweep and `uplink_time` the time each
    protocol is charged.
    """

    figures: tuple[str, ...] = _key(
        "experiment", FIGURE_TAGS, _names(dict(zip(FIGURE_TAGS, FIGURE_TAGS)), "figure tag")
    )
    protocols: tuple[Protocol, ...] = _key(
        "experiment", tuple(Protocol), _names({p.value: p for p in Protocol}, "protocol")
    )
    seed: int = _key("experiment", 0, _int(minimum=0))
    trials: int = _key("experiment", 100_000, _int(minimum=_MIN_TRIALS))
    out_dir: str = _key("experiment", "results", _path)
    bandwidth_hz: float = _key("channel", 20e6, _float(_POSITIVE))
    rate_bps: float = _key("channel", 200e3, _float(_POSITIVE))
    snr_db: float = _key("channel", 40.0, _float())
    relay_sensor_ratio: float = _key("topology", 0.2, _float(_POSITIVE))
    packet_bytes: int = _key("protocol", 22, _int(minimum=1))
    p_timeout: float = _key("protocol", 1e-4, _float("[0, 1]"))
    harq_max_rounds: int = _key("protocol", 7, _int(minimum=1))
    harq_diversity: int = _key("protocol", 2, _int(minimum=1))
    reflexup_t_vs: float = _key("protocol", 1e-5, _float(_POSITIVE))
    oc_t1_scale: float = _key("protocol", 2.0, _float(_POSITIVE))
    oc_t2_scale: float = _key("protocol", 1.0, _float(_POSITIVE))
    n_tasks: int = _key("cec", 100, _int(minimum=1))
    k_rbs: int = _key("cec", 200, _int(minimum=1))
    c: float = _key("cec", 1.5, _float(_POSITIVE))
    c0: float = _key("cec", 1.5, _float(_POSITIVE))
    snr_grid_db: tuple[float, ...] = _key(
        "sweep", (10.0, 20.0, 30.0, 40.0, 50.0, 60.0), _list(_float())
    )
    n_g_grid: tuple[int, ...] = _key(
        "sweep", (50, 100, 150, 200, 250, 300, 350, 400, 450, 500), _list(_int())
    )
    task_grid: tuple[int, ...] = _key(
        "sweep", (10, 20, 30, 40, 50, 60, 70, 80, 90, 100), _list(_int())
    )
    t_cp_fig9: float = _key("sweep", 0.5, _float(_POSITIVE))
    t_cp_fig10: float = _key("sweep", 0.005, _float(_POSITIVE))
    # Chosen so the padded-slot optimum sits between the per-node HARQ latency
    # at 250 and at 251 nodes, pinning the latency crossover at 251.
    t_cp_fig11: float = _key("sweep", 3.23841e-4, _float(_POSITIVE))
    t_cp_fig12: float = _key("sweep", 0.005, _float(_POSITIVE))
    fig12_n_g: int = _key("sweep", 250, _int(minimum=2))
    fig13_n_g: tuple[int, ...] = _key("sweep", (100, 250, 500), _list(_int()))
    fig7_t_cm_max: float = _key("sweep", 10.0, _float(_POSITIVE))
    fig7_t_cp_max: float = _key("sweep", 0.5, _float(_POSITIVE))
    fig7_t_cm_points: int = _key("sweep", 100, _int(minimum=2))
    fig7_t_cp_points: int = _key("sweep", 8, _int(minimum=1))

    applied_defaults: list[str] = field(default_factory=list)

    @property
    def packet_bits(self) -> int:
        return self.packet_bytes * 8

    def channel(self, snr_db: float | None = None) -> ChannelParams:
        """The configured link, at `snr_db` when given."""
        return ChannelParams(
            self.snr_db if snr_db is None else snr_db, self.bandwidth_hz, self.rate_bps
        )

    def cec(self, n_tasks: int | None = None) -> CecConfig:
        """The configured loop constants, with `n_tasks` tasks when given."""
        return CecConfig(self.n_tasks if n_tasks is None else n_tasks, self.k_rbs, self.c, self.c0)

    def shape(self, n_g: int) -> NetworkShape:
        """The configured split of an `n_g`-node network."""
        return split_nodes(n_g, self.relay_sensor_ratio, self.packet_bits)

    def oc_windows(self, n_sensors: int) -> tuple[float, float]:
        """Occupy CoW's phase windows (t1, t2) over `n_sensors` sensors: the configured scales
        of the time their packets take at the configured rate. Each must be finite and > 0."""
        base = n_sensors * (self.packet_bits + 1) / self.rate_bps
        t1, t2 = self.oc_t1_scale * base, self.oc_t2_scale * base
        if not (0 < t1 < math.inf and 0 < t2 < math.inf):
            raise ValueError(
                f"Occupy CoW's windows, oc_t1_scale and oc_t2_scale times {n_sensors} * (packet_bits + 1)"
                f" / rate_bps = {base!r} s, are {t1!r} and {t2!r} s, not finite and > 0"
            )
        return t1, t2

    def uplink_time(
        self, protocol: Protocol, shape: NetworkShape, chan: ChannelParams, d_hat: float | None, t_cp: float | None
    ) -> float:
        """`protocol`'s uplink time on the network `shape` over the link `chan`: HARQ's at `d_hat`
        expected rounds, Occupy CoW's over its `oc_windows`, ReFlexUp's steered toward the
        padded-slot optimum at `t_cp`. Only HARQ reads `d_hat` and only ReFlexUp `t_cp`."""
        if protocol == Protocol.SELECTIVE_REPEAT_ARQ:
            return srarq_latency(shape, chan)
        if protocol == Protocol.HARQ:
            return harq_latency(shape, chan, d_hat)
        if protocol == Protocol.OCCUPY_COW:
            return occupycow_latency(occupycow_phase_probs(shape, chan, *self.oc_windows(shape.n_sensors)))
        return reflexup_latency(shape, chan, self.cec(), t_cp).t_cm

    def fig7_grids(self) -> tuple[np.ndarray, np.ndarray]:
        """fig7's t_cm and t_cp grids: `points` even steps up to each axis' `max`."""
        return (
            _even_grid(self.fig7_t_cm_max, self.fig7_t_cm_points),
            _even_grid(self.fig7_t_cp_max, self.fig7_t_cp_points),
        )


def _even_grid(top: float, points: int) -> np.ndarray:
    """`points` even steps from top / points to `top`; each must be finite and > 0."""
    grid = np.linspace(top / points, top, points)
    if not (np.isfinite(grid).all() and grid.min() > 0):
        raise ValueError(f"its {points}-point grid holds values that are not finite and > 0")
    return grid


# (section, key) -> parser, in field order: the schema, read off the fields.
_PARSERS = {
    (f.metadata["section"], f.name): f.metadata["parse"]
    for f in fields(ExperimentConfig)
    if f.metadata
}
_SECTIONS = {section for section, _ in _PARSERS}


def default_config() -> ExperimentConfig:
    """The full default parameter set, with every default echoed."""
    cfg = ExperimentConfig()
    cfg.applied_defaults = [f"{section}.{key} = {getattr(cfg, key)}" for section, key in _PARSERS]
    return cfg


def validate_config(path) -> ExperimentConfig:
    """Parse and validate a config file, applying and echoing defaults.

    Raises ConfigError with every located problem (unknown keys, type errors
    by key path). Out-of-range but representable values (e.g. SNR outside the
    evaluated 10-60 dB band) produce warnings, not errors.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc

    cfg = default_config()
    errors: list[str] = []
    for section in parser.sections():
        if section not in _SECTIONS:
            errors.append(f"unknown section [{section}]")
            continue
        for key, raw in parser.items(section):
            try:
                apply_override(cfg, section, key, raw)
            except ConfigError as exc:
                errors.append(str(exc))

    errors.extend(_cross_checks(cfg))
    if errors:
        raise ConfigError("config validation failed:\n  " + "\n  ".join(errors))

    if not 10.0 <= cfg.snr_db <= 60.0:
        warnings.warn(
            f"snr_db = {cfg.snr_db} lies outside the evaluated [10, 60] dB band",
            UserWarning,
            stacklevel=2,
        )
    return cfg


def apply_override(cfg: ExperimentConfig, section: str, key: str, raw: str) -> None:
    """Set one key from its text, through the key's own parser.

    Raises ConfigError located by the key path; a key that fails keeps its
    value. A key that is set no longer counts as defaulted.
    """
    parse = _PARSERS.get((section, key))
    if parse is None:
        raise ConfigError(f"unknown key {section}.{key}")
    try:
        setattr(cfg, key, parse(raw))
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc} (got {raw!r})") from exc
    echoed = f"{section}.{key} = "
    cfg.applied_defaults = [line for line in cfg.applied_defaults if not line.startswith(echoed)]


def _cross_checks(cfg: ExperimentConfig) -> list[str]:
    """Build every model object and swept time the sweeps build, so that an
    inadmissible combination (c against n_tasks and k_rbs, a network too small
    to split, a window or grid that under- or overflows) is a config error, not
    a figure failure at run time."""
    times = _baseline_times(cfg)
    return [
        *_rejected("[cec] n_tasks", (cfg.n_tasks,), cfg.cec),
        *_rejected("[sweep] task_grid", cfg.task_grid, cfg.cec),
        *_rejected("[channel] snr_db", (cfg.snr_db,), _check_snr),
        *_rejected("[sweep] snr_grid_db", cfg.snr_grid_db, _check_snr),
        *_rejected("[sweep] n_g_grid", cfg.n_g_grid, lambda n_g: cfg.oc_windows(cfg.shape(n_g).n_sensors)),
        *_rejected("[sweep] fig12_n_g", (cfg.fig12_n_g,), cfg.shape),
        *_rejected("[sweep] fig13_n_g", cfg.fig13_n_g, cfg.shape),
        *_rejected("[sweep] fig7_t_cm_max", (cfg.fig7_t_cm_max,), lambda top: _even_grid(top, cfg.fig7_t_cm_points)),
        *_rejected("[sweep] fig7_t_cp_max", (cfg.fig7_t_cp_max,), lambda top: _even_grid(top, cfg.fig7_t_cp_points)),
        *_rejected("[cec] c", (cfg.c,), lambda _: _check_fig7_peaks(cfg)),
        *_rejected("[channel] rate_bps", (cfg.rate_bps,), lambda _: _check_uplink_times(times)),
        *_rejected("[sweep] t_cp_fig9", (cfg.t_cp_fig9,), lambda t_cp: _check_efficiencies(cfg, times, t_cp)),
        *_rejected("[sweep] t_cp_fig10", (cfg.t_cp_fig10,), lambda t_cp: _check_efficiencies(cfg, times, t_cp)),
    ]


def _check_fig7_peaks(cfg: ExperimentConfig) -> None:
    """Reject a fig7 surface whose series peak is not a normal positive float.

    `c * t_cp * t_cm` underflows for a tiny `c`: at 5e-324 every value is 0,
    and at 1e-320 the subnormal values tie, so the argmax is not the ridge.
    Every value grows with t_cp, and so do the product and the denominator
    that could overflow, so the first and last series bound the surface. A
    surface whose model objects fail their own checks is left to those.
    """
    try:
        cec = cfg.cec()
        t_cm_grid, t_cp_grid = cfg.fig7_grids()
    except ValueError:
        return
    with np.errstate(all="ignore"):
        for t_cp in (float(t_cp_grid[0]), float(t_cp_grid[-1])):
            peak = float(ucc_case3(t_cm_grid, t_cp, cec).max())
            if not sys.float_info.min <= peak < math.inf:
                raise ValueError(f"fig7's series at t_cp = {t_cp:.6g} s peaks at {peak!r}, not a normal float > 0")


def _baseline_times(cfg: ExperimentConfig) -> list[tuple[Protocol, int, float]]:
    """(protocol, n_g, uplink time) of each configured baseline at the largest `n_g_grid` size.

    Every baseline's time grows with the network, so that size bounds the
    times fig9-fig11 charge. HARQ is charged its full round budget, which
    bounds its expected rounds d_hat. Empty when the size or the channel
    fails its own checks (say, an SNR whose linear value overflows), which
    report it.
    """
    n_g = max(cfg.n_g_grid)
    try:
        shape, chan = cfg.shape(n_g), cfg.channel()
        return [
            (protocol, n_g, cfg.uplink_time(protocol, shape, chan, cfg.harq_max_rounds, None))
            for protocol in cfg.protocols
            if protocol != Protocol.REFLEXUP
        ]
    except (ValueError, ArithmeticError):
        return []


def _check_uplink_times(times: list[tuple[Protocol, int, float]]) -> None:
    for protocol, n_g, t_cm in times:
        if not math.isfinite(t_cm):
            raise ValueError(f"{protocol.value}'s uplink time at n_g = {n_g} is {t_cm!r} s, not finite")


def _check_efficiencies(cfg: ExperimentConfig, times: list[tuple[Protocol, int, float]], t_cp: float) -> None:
    """Reject a baseline whose fig9/fig10 efficiency at `t_cp` is not finite (a product that overflows)."""
    try:
        cec = cfg.cec()
    except ValueError:
        return
    for protocol, n_g, t_cm in times:
        if math.isfinite(t_cm) and not math.isfinite(u := ucc_case3(t_cm, t_cp, cec)):
            raise ValueError(f"{protocol.value}'s efficiency at n_g = {n_g} is {u!r} (uplink time {t_cm!r} s)")


def _check_snr(snr_db: float) -> None:
    """Reject an SNR whose linear value, which the sweeps divide by, is 0 or overflows."""
    try:
        linear = db_to_linear(snr_db)
    except OverflowError:
        linear = math.inf
    if not 0.0 < linear < math.inf:
        raise ValueError("its linear SNR is not a finite number > 0")


def _rejected(key: str, values, build) -> list[str]:
    """One error, located by key path and value, per value that `build` rejects."""
    errors = []
    for value in values:
        try:
            build(value)
        except ValueError as exc:
            errors.append(f"{key}: {value}: {exc}")
    return errors
