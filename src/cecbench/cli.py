"""Command-line experiment runner.

Usage: cec-bench run <config-path> [--out DIR] [--seed N] [--trials N]
[--figure TAG]. Exit codes: 0 success, 1 config validation error, 2 runtime
error while building figures.
"""
from __future__ import annotations

import argparse
import functools
import sys

from .config import FIGURE_TAGS, ConfigError, apply_override, validate_config
from .figures import run_experiment, summarize

__all__ = ["main"]


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it unchanged, so every
    `main` call in a process reuses it."""
    parser = argparse.ArgumentParser(
        prog="cec-bench",
        description="Reproduce the loop-efficiency, latency, and reliability sweeps as CSV datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run the experiment described by a config file")
    run.add_argument("config", help="path to the INI experiment config")
    run.add_argument("--out", help="output directory (overrides the config)")
    run.add_argument("--seed", help="master seed (overrides the config)")
    run.add_argument("--trials", help="trial count a HARQ certificate is stated for (overrides the config)")
    run.add_argument(
        "--figure",
        help="build only this figure (overrides the config list): " + ", ".join(FIGURE_TAGS),
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    flags = {"out_dir": args.out, "seed": args.seed, "trials": args.trials, "figures": args.figure}
    try:
        cfg = validate_config(args.config)
        for key, raw in flags.items():
            if raw is not None:
                apply_override(cfg, "experiment", key, raw)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for line in cfg.applied_defaults:
        print(f"default applied: {line}")

    try:
        datasets = run_experiment(cfg)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"wrote {len(datasets)} dataset(s) to {cfg.out_dir}")
    for tag in cfg.figures:
        for line in summarize(datasets[tag]):
            print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
