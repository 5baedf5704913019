"""cecbench benchmark launcher.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is used from ``src``
without installing it. The launcher pins the BLAS threads to one, times the
set-up of the workload in fresh processes (``setup_s`` is the median of
SETUP_SAMPLES), lets the last of them measure, and prints a report whose
last line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``). Everything it writes stays under
``perfbench/out`` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 3
DEADLINE_S = 170.0  # the whole run, set-up samples included
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class RunFailed(RuntimeError):
    pass


def _worker_env(tmp: str) -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # leave src/ as checked out
    env["TMPDIR"] = tmp
    return env


def _run_worker(argv: list[str], env: dict, cwd: str, deadline: float) -> tuple[float, float, dict | None]:
    """Start one worker; return (seconds until READY, its slowdown, its RESULT or None)."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), *argv],
        stdout=subprocess.PIPE, text=True, env=env, cwd=cwd,
    )
    watchdog = threading.Timer(max(deadline - perf_counter(), 0.0), proc.kill)
    watchdog.start()
    setup_s = slowdown = result = None
    try:
        for line in proc.stdout:
            if line == "READY\n" and setup_s is None:
                setup_s = perf_counter() - t0
            elif line.startswith("CAL "):
                slowdown = float(line[len("CAL "):])
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                sys.stderr.write(line)
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or setup_s is None or slowdown is None:
        raise RunFailed(f"worker exited with code {proc.returncode}")
    return setup_s, slowdown, result


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description="cecbench benchmark")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the smoke test")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")

    if not os.path.isfile(os.path.join(ROOT, "src", "cecbench", "__init__.py")):
        print(f"error: no cecbench sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    deadline = perf_counter() + DEADLINE_S
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    try:
        env = _worker_env(tmp)
        worker_argv = [
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
        ] + (["--tiny"] if args.tiny else [])
        setups = []  # (wall seconds, slowdown)
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(_run_worker(worker_argv + ["--setup-only"], env, tmp, deadline)[:2])
        else:
            spans = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.csv")
            worker_argv += ["--spans-out", spans]
        *setup, result = _run_worker(worker_argv, env, tmp, deadline)
        setups.append(tuple(setup))
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if result is None:
        print("error: worker printed no result", file=sys.stderr)
        return 3

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(wall / slow for wall, slow in setups)
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
        result["lines"].append(
            f"setup_s: median of {len(setups)} set-ups in fresh processes, in reference seconds: "
            + ", ".join(f"{wall / slow:.4f}" for wall, slow in setups)
            + f"; in wall seconds: median {statistics.median(w for w, _ in setups):.4f}: "
            + ", ".join(f"{wall:.4f}" for wall, _ in setups)
        )
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    absent = [m["name"] for m in wanted if m["name"] not in metrics]
    if absent:
        print(f"error: metrics not measured: {absent}", file=sys.stderr)
        return 3
    attempted, failed = result["attempted"], result["failed"]
    for line in result["lines"]:
        print(line)
    print(f"error_rate: {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    for m in wanted:
        print(f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
