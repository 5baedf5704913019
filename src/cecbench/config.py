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
import warnings
from dataclasses import dataclass, field

from .cec import CecConfig
from .channel import db_to_linear
from .protocols import _MIN_TRIALS, NetworkShape, Protocol, split_nodes

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

_PROTOCOL_NAMES = {p.value: p for p in Protocol}


class ConfigError(ValueError):
    """Config validation failure; the message lists every located problem."""


@dataclass
class ExperimentConfig:
    """Fully-resolved experiment description."""

    # experiment
    scenario: str = "default"
    figures: tuple[str, ...] = FIGURE_TAGS
    protocols: tuple[Protocol, ...] = tuple(Protocol)
    seed: int = 0
    trials: int = 100_000
    out_dir: str = "results"
    # channel
    bandwidth_hz: float = 20e6
    rate_bps: float = 200e3
    snr_db: float = 40.0
    # topology
    relay_sensor_ratio: float = 0.2
    # protocol constants
    packet_bytes: int = 22
    p_timeout: float = 1e-4
    harq_max_rounds: int = 7
    harq_diversity: int = 2
    reflexup_t_vs: float = 1e-5
    oc_t1_scale: float = 2.0
    oc_t2_scale: float = 1.0
    # cec
    n_tasks: int = 100
    k_rbs: int = 200
    c: float = 1.5
    c0: float = 1.5
    epsilon: float = 1.0
    # sweeps
    snr_grid_db: tuple[float, ...] = (10.0, 20.0, 30.0, 40.0, 50.0, 60.0)
    n_g_grid: tuple[int, ...] = (50, 100, 150, 200, 250, 300, 350, 400, 450, 500)
    task_grid: tuple[int, ...] = (10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
    t_cp_fig9: float = 0.5
    t_cp_fig10: float = 0.005
    # Chosen so the padded-slot optimum sits between the per-node HARQ latency
    # at 250 and at 251 nodes, pinning the latency crossover at 251.
    t_cp_fig11: float = 3.23841e-4
    t_cp_fig12: float = 0.005
    fig12_n_g: int = 250
    fig13_n_g: tuple[int, ...] = (100, 250, 500)
    fig7_t_cm_max: float = 10.0
    fig7_t_cp_max: float = 0.5
    fig7_t_cm_points: int = 100
    fig7_t_cp_points: int = 8

    applied_defaults: list[str] = field(default_factory=list)

    @property
    def packet_bits(self) -> int:
        return self.packet_bytes * 8


# section -> key -> (attribute, parser)
def _float(positive=False):
    def parse(text: str) -> float:
        value = float(text)
        if not math.isfinite(value):
            raise ValueError("expected a finite number")
        if positive and not value > 0:
            raise ValueError("expected a number > 0")
        return value

    return parse


def _int(minimum=None):
    def parse(text: str) -> int:
        value = int(text)
        if minimum is not None and value < minimum:
            raise ValueError(f"expected an integer >= {minimum}")
        return value

    return parse


def _float_list(text: str) -> tuple[float, ...]:
    items = tuple(float(t) for t in text.replace(",", " ").split())
    if not items:
        raise ValueError("expected a non-empty list of numbers")
    if not all(math.isfinite(v) for v in items):
        raise ValueError("expected finite numbers")
    return items


def _int_list(text: str) -> tuple[int, ...]:
    items = tuple(int(t) for t in text.replace(",", " ").split())
    if not items:
        raise ValueError("expected a non-empty list of integers")
    return items


def _figures(text: str) -> tuple[str, ...]:
    items = tuple(t for t in text.replace(",", " ").split())
    if not items:
        raise ValueError("expected at least one figure tag")
    for tag in items:
        if tag not in FIGURE_TAGS:
            raise ValueError(f"unknown figure tag {tag!r}; known: {', '.join(FIGURE_TAGS)}")
    return items


def _protocols(text: str) -> tuple[Protocol, ...]:
    items = tuple(t for t in text.replace(",", " ").split())
    if not items:
        raise ValueError("expected at least one protocol")
    out = []
    for name in items:
        if name not in _PROTOCOL_NAMES:
            raise ValueError(
                f"unknown protocol {name!r}; known: {', '.join(_PROTOCOL_NAMES)}"
            )
        out.append(_PROTOCOL_NAMES[name])
    return tuple(out)


_SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "experiment": {
        "scenario": ("scenario", str),
        "figures": ("figures", _figures),
        "protocols": ("protocols", _protocols),
        "seed": ("seed", _int(minimum=0)),
        "trials": ("trials", _int(minimum=_MIN_TRIALS)),
        "out_dir": ("out_dir", str),
    },
    "channel": {
        "bandwidth_hz": ("bandwidth_hz", _float(positive=True)),
        "rate_bps": ("rate_bps", _float(positive=True)),
        "snr_db": ("snr_db", _float()),
    },
    "topology": {
        "relay_sensor_ratio": ("relay_sensor_ratio", _float(positive=True)),
    },
    "protocol": {
        "packet_bytes": ("packet_bytes", _int(minimum=1)),
        "p_timeout": ("p_timeout", _float()),
        "harq_max_rounds": ("harq_max_rounds", _int(minimum=1)),
        "harq_diversity": ("harq_diversity", _int(minimum=1)),
        "reflexup_t_vs": ("reflexup_t_vs", _float(positive=True)),
        "oc_t1_scale": ("oc_t1_scale", _float(positive=True)),
        "oc_t2_scale": ("oc_t2_scale", _float(positive=True)),
    },
    "cec": {
        "n_tasks": ("n_tasks", _int(minimum=1)),
        "k_rbs": ("k_rbs", _int(minimum=1)),
        "c": ("c", _float(positive=True)),
        "c0": ("c0", _float()),
        "epsilon": ("epsilon", _float()),
    },
    "sweep": {
        "snr_grid_db": ("snr_grid_db", _float_list),
        "n_g_grid": ("n_g_grid", _int_list),
        "task_grid": ("task_grid", _int_list),
        "t_cp_fig9": ("t_cp_fig9", _float(positive=True)),
        "t_cp_fig10": ("t_cp_fig10", _float(positive=True)),
        "t_cp_fig11": ("t_cp_fig11", _float(positive=True)),
        "t_cp_fig12": ("t_cp_fig12", _float(positive=True)),
        "fig12_n_g": ("fig12_n_g", _int(minimum=2)),
        "fig13_n_g": ("fig13_n_g", _int_list),
        "fig7_t_cm_max": ("fig7_t_cm_max", _float(positive=True)),
        "fig7_t_cp_max": ("fig7_t_cp_max", _float(positive=True)),
        "fig7_t_cm_points": ("fig7_t_cm_points", _int(minimum=2)),
        "fig7_t_cp_points": ("fig7_t_cp_points", _int(minimum=1)),
    },
}


def default_config() -> ExperimentConfig:
    """The full default parameter set, with every default echoed."""
    cfg = ExperimentConfig()
    cfg.applied_defaults = _all_default_keys(cfg, set())
    return cfg


def _all_default_keys(cfg: ExperimentConfig, provided: set[tuple[str, str]]) -> list[str]:
    echoed = []
    for section, keys in _SCHEMA.items():
        for key, (attr, _) in keys.items():
            if (section, key) not in provided:
                echoed.append(f"{section}.{key} = {getattr(cfg, attr)}")
    return echoed


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

    cfg = ExperimentConfig()
    errors: list[str] = []
    provided: set[tuple[str, str]] = set()

    for section in parser.sections():
        if section not in _SCHEMA:
            errors.append(f"unknown section [{section}]")
            continue
        for key, raw in parser.items(section):
            spec = _SCHEMA[section].get(key)
            if spec is None:
                errors.append(f"unknown key {section}.{key}")
                continue
            attr, parse = spec
            try:
                setattr(cfg, attr, parse(raw))
                provided.add((section, key))
            except ValueError as exc:
                errors.append(f"[{section}] {key}: {exc} (got {raw!r})")

    errors.extend(_cross_checks(cfg))
    if errors:
        raise ConfigError("config validation failed:\n  " + "\n  ".join(errors))

    if not 10.0 <= cfg.snr_db <= 60.0:
        warnings.warn(
            f"snr_db = {cfg.snr_db} lies outside the evaluated [10, 60] dB band",
            UserWarning,
            stacklevel=2,
        )
    cfg.applied_defaults = _all_default_keys(cfg, provided)
    return cfg


def apply_override(cfg: ExperimentConfig, section: str, key: str, raw: str) -> None:
    """Set one key from outside the config file, through the file's own check.

    Raises ConfigError located by the key path, as validate_config does. The
    key no longer counts as defaulted.
    """
    attr, parse = _SCHEMA[section][key]
    try:
        setattr(cfg, attr, parse(raw))
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: {exc} (got {raw!r})") from exc
    echoed = f"{section}.{key} = "
    cfg.applied_defaults = [line for line in cfg.applied_defaults if not line.startswith(echoed)]


def _cross_checks(cfg: ExperimentConfig) -> list[str]:
    errors = []
    if not cfg.figures:
        errors.append("[experiment] figures: at least one figure tag required")
    if not cfg.protocols:
        errors.append("[experiment] protocols: at least one protocol required")
    if not 0.0 <= cfg.p_timeout <= 1.0:
        errors.append(f"[protocol] p_timeout: must lie in [0, 1], got {cfg.p_timeout}")
    if not 0.0 < cfg.epsilon <= 1.0:
        errors.append(f"[cec] epsilon: must lie in (0, 1], got {cfg.epsilon}")
    if cfg.c0 < 0:
        errors.append(f"[cec] c0: must be >= 0, got {cfg.c0}")

    # Build every model object the sweeps build, so that an inadmissible
    # combination (c against n_tasks and k_rbs, a network too small to split)
    # is a config error, not a figure failure at run time.
    def cec(n_tasks: int) -> CecConfig:
        return CecConfig(n_tasks, cfg.k_rbs, cfg.c, cfg.c0, cfg.epsilon)

    def shape(n_g: int) -> NetworkShape:
        return split_nodes(n_g, cfg.relay_sensor_ratio, cfg.packet_bits)

    if 0.0 < cfg.epsilon <= 1.0 and cfg.c0 >= 0:  # else CecConfig repeats those errors
        errors += _rejected("[cec] n_tasks", (cfg.n_tasks,), cec)
        errors += _rejected("[sweep] task_grid", cfg.task_grid, cec)
    errors += _rejected("[channel] snr_db", (cfg.snr_db,), _check_snr)
    errors += _rejected("[sweep] snr_grid_db", cfg.snr_grid_db, _check_snr)
    errors += _rejected("[sweep] n_g_grid", cfg.n_g_grid, shape)
    errors += _rejected("[sweep] fig12_n_g", (cfg.fig12_n_g,), shape)
    errors += _rejected("[sweep] fig13_n_g", cfg.fig13_n_g, shape)
    return errors


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
