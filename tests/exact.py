"""The simulator's exact failure law, by enumerating the flags of a run.

Every decision of a Selective Repeat, ReFlexUp or Occupy CoW run is a flag
from one of `sim._Run`'s two flag readers: `passes`, a fade at least h*,
True with probability exp(-h*), and `fires`, a uniform below p, True with
probability p. `exact_law(run)` swaps in scripted readers and replays
`run(0)` once per leaf of the run's flag tree. A replay takes its leaf's
prefix of flags, then True at each new flag, and leaves the other value of
each new flag to a later replay; a branch of probability 0 is never taken.
Each leaf's failure, void round and duration are weighed by the product of
its flags' probabilities: conditional Monte Carlo carried to the end (Asmussen
& Glynn, *Stochastic Simulation*, 2007). HARQ decides on a running sum of
round information, not on flags, and has no such tree.

    law = exact_law(scenarios.scenario(Protocol.OCCUPY_COW, chan))
"""
from __future__ import annotations

import math
from typing import Callable, Iterator, NamedTuple

from cecbench import sim

MAX_LEAVES = 100_000


class Law(NamedTuple):
    failure: float  # P(some flow fails)
    void: float  # P(the round is void: an Occupy CoW round with no phase-1 survivor)
    duration: float  # the mean duration of a run, in seconds
    leaves: int  # the replays it took: the leaves of the flag tree


class _Script:
    """The flags of one replay, read by every scripted reader of the run in the order the run reads them."""

    def __init__(self, prefix: tuple[bool, ...]) -> None:
        self.prefix = prefix
        self.taken: list[bool] = []
        self.weight = 1.0  # the product of the probabilities of the flags taken
        self.branches: list[tuple[bool, ...]] = []  # prefixes of the leaves left to later replays

    def flags(self, p_true: float, p_false: float) -> Iterator[bool]:
        while True:
            if len(self.taken) < len(self.prefix):
                flag = self.prefix[len(self.taken)]
            else:
                flag = p_true > 0.0
                if (p_false if flag else p_true) > 0.0:
                    self.branches.append((*self.taken, not flag))
            self.taken.append(flag)
            self.weight *= p_true if flag else p_false
            yield flag


def _replay(run: Callable[[int], sim.SimTrace], script: _Script) -> sim.SimTrace:
    """`run(0)` with `_Run.passes` and `_Run.fires` reading `script`; the readers are restored after."""

    def passes(_run, head, sizes, h_star):
        return {v: script.flags(math.exp(-h_star), -math.expm1(-h_star)) for v in sizes}

    def fires(_run, p, n, *path):
        return script.flags(p, 1.0 - p)

    saved = sim._Run.passes, sim._Run.fires
    sim._Run.passes, sim._Run.fires = passes, fires
    try:
        return run(0)
    finally:
        sim._Run.passes, sim._Run.fires = saved


def exact_law(run: Callable[[int], sim.SimTrace], max_leaves: int = MAX_LEAVES) -> Law:
    """The exact failure and void probabilities and mean duration of `run`, a non-HARQ `run(seed)`.

    Raises ValueError once the flag tree has more than `max_leaves` leaves."""
    pending: list[tuple[bool, ...]] = [()]
    failure, void, duration = [], [], []
    leaves = 0
    while pending:
        leaves += 1
        if leaves > max_leaves:
            raise ValueError(f"the run's flag tree has more than {max_leaves} leaves")
        script = _Script(pending.pop())
        trace = _replay(run, script)
        pending.extend(script.branches)
        w = script.weight
        failure.append(w * trace.any_communication_failure)
        void.append(w * any(out.void_round for out in trace.flows.values()))
        duration.append(w * trace.duration)
    return Law(math.fsum(failure), math.fsum(void), math.fsum(duration), leaves)
