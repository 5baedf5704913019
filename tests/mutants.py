"""One-line model mutants that the suite must kill, and a runner that checks each one dies.

    python tests/mutants.py

Each entry of `MUTANTS` is (file, old text, new text, test id): the file
relative to the repository root, a text that occurs in it exactly once, its
mutated form, and the test that must fail once the text is replaced. The
runner copies `src/`, `tests/` and `pyproject.toml` into a temporary
directory and first runs every listed test there unmutated, which must pass.
Then, one mutant at a time, it applies the mutant to the copy, runs its test
and restores the file. A mutant is killed when its test fails (pytest exit
status 1); a pass, or any other status, such as a collection error, leaves
it alive. The runner exits 1 when any mutant is alive. This is mutation
analysis (DeMillo, Lipton & Sayward, "Hints on test data selection", 1978).
pytest does not collect this file: its name does not start with `test_`.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
EXACT_LAW = "tests/test_exact_law.py::test_exact_law_equals_the_closed_forms"


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    test: str


MUTANTS = (
    # Occupy CoW's conditional rescue failure becomes the phase-2 outage.
    Mutant("src/cecbench/protocols.py", "p12 = min(p1 / p2, 1.0) if p2 > 0 else 1.0", "p12 = p2", EXACT_LAW),
    # `live` ends the rounds one attempt early when an attempt would end at the deadline.
    Mutant(
        "src/cecbench/sim.py",
        "end <= self.flows[t].deadline",
        "end < self.flows[t].deadline",
        "tests/test_sim.py::test_an_attempt_that_ends_at_the_deadline_is_made",
    ),
    # The rescue of n - a stragglers fails as if there were one more.
    Mutant("src/cecbench/protocols.py", "(1.0 - params.p12) ** (n - a)", "(1.0 - params.p12) ** (n - a + 1)", EXACT_LAW),
)


def _pytest(copy: Path, tests: list[str]) -> int:
    """The exit status of pytest on `tests` in `copy`, with its `src` on the path."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, copy / tree, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        status = _pytest(copy, sorted({m.test for m in MUTANTS}))
        if status != 0:
            print(f"the listed tests do not pass unmutated (pytest exit status {status})")
            return 1
        alive = []
        for m in MUTANTS:
            path = copy / m.file
            text = path.read_text(encoding="utf-8")
            if text.count(m.old) != 1:
                raise ValueError(f"{m.file}: {m.old!r} occurs {text.count(m.old)} times, not once")
            path.write_text(text.replace(m.old, m.new), encoding="utf-8")
            try:
                status = _pytest(copy, [m.test])
            finally:
                path.write_text(text, encoding="utf-8")
            print(f"{'killed' if status == 1 else 'ALIVE '} {m.file}: {m.old!r} -> {m.new!r} by {m.test} (exit {status})")
            if status != 1:
                alive.append(m)
        print(f"{len(MUTANTS) - len(alive)} of {len(MUTANTS)} mutants killed")
        return 1 if alive else 0


if __name__ == "__main__":
    sys.exit(main())
