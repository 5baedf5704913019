"""Efficiency model for the communication/edge-computing (CEC) loop.

Per-task compute utilization u_c, resource-block utilization u_RB, the
aggregate efficiency U_cc, the closed forms and optima for the three
tractable scheduling cases, and the Gaussian irregular-traffic extension.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from ._checks import integer, real

__all__ = [
    "TaskProfile",
    "CecConfig",
    "RbAllocation",
    "PerTaskUtilization",
    "ScheduleResult",
    "TrafficScaling",
    "UccResult",
    "DegenerateScheduleWarning",
    "compute_uc",
    "compute_urb",
    "compute_ucc",
    "ucc_case1",
    "ucc_case1_bound",
    "ucc_case2",
    "optimal_tcm_case2",
    "ucc_case3",
    "optimal_tcm_case3",
    "ucc_case3_at_optimum",
    "weighted_objective",
    "expected_times_gaussian",
    "allocate_rbs_equal",
]


class DegenerateScheduleWarning(UserWarning):
    """Raised when the padded-slot derivative test loses validity (N*c0 == T_cp)."""


@dataclass(frozen=True)
class TaskProfile:
    """One sensing task: stream size, compute time, communication time, RB set."""

    task_id: int
    data_bits: float
    t_cp: float
    t_cm: float
    rb_set: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        real("data_bits", self.data_bits, "(0, inf)")
        real("t_cp", self.t_cp, "[0, inf)")
        real("t_cm", self.t_cm, "[0, inf)")


@dataclass(frozen=True)
class CecConfig:
    """Loop-level constants.

    n_tasks: number of concurrent sensing tasks N.
    k_rbs: resource-block pool size K.
    c: RB-allocation ratio constant. Note the admissible range is the
        count-like band 0 < c < K - N for N < K (0 < c <= 1 otherwise); it is
        enforced as-is even though a ratio bounded by a count is unusual.
    c0: protocol interval constant in seconds.
    """

    n_tasks: int
    k_rbs: int
    c: float = 1.5
    c0: float = 1.5

    def __post_init__(self) -> None:
        integer("n_tasks", self.n_tasks, 1)
        integer("k_rbs", self.k_rbs, 1)
        real("c", self.c, f"(0, {self.k_rbs - self.n_tasks})" if self.n_tasks < self.k_rbs else "(0, 1]")
        real("c0", self.c0, "[0, inf)")


@dataclass(frozen=True)
class RbAllocation:
    """Binary task x RB indicator matrix.

    Rows are tasks, columns are resource blocks. Valid allocations partition
    the whole pool: every RB is used by exactly one task.
    """

    indicator: np.ndarray

    def __post_init__(self) -> None:
        ind = np.asarray(self.indicator)
        if ind.ndim != 2:
            raise ValueError("indicator must be a 2-D matrix")
        if not np.isin(ind, (0, 1)).all():
            raise ValueError("indicator entries must be 0/1")
        col_sums = ind.sum(axis=0)
        if (col_sums > 1).any():
            raise ValueError("an RB is assigned to more than one task")
        if int(ind.sum()) != ind.shape[1]:
            raise ValueError("allocation must partition the whole RB pool")
        object.__setattr__(self, "indicator", ind.astype(np.int8))

    @property
    def n_tasks(self) -> int:
        return self.indicator.shape[0]

    @property
    def k_rbs(self) -> int:
        return self.indicator.shape[1]

    def rb_count(self, task_id: int) -> int:
        """Number of RBs held by the given task (0-based index)."""
        return int(self.indicator[task_id].sum())


class PerTaskUtilization(NamedTuple):
    task_id: int
    t_cm: float
    u_c: float
    u_rb: float


@dataclass(frozen=True)
class ScheduleResult:
    """Per-task utilizations plus the aggregate efficiency of one schedule."""

    per_task: tuple[PerTaskUtilization, ...]
    u_cc: float
    t_p: float
    feasible: bool = True


@dataclass(frozen=True)
class TrafficScaling:
    """Gaussian scaling of per-task traffic: times scale by a ~ N(mean, std^2)."""

    mean: float
    std: float
    t_cm0: float
    t_cp0: float

    def __post_init__(self) -> None:
        real("std", self.std, "[0, inf)")
        # A positive mean keeps the scaled times positive in expectation.
        real("mean", self.mean, "(0, inf)")


class UccResult(NamedTuple):
    value: float
    uc_total: float
    urb_total: float
    feasible: bool


def compute_uc(t_cp: float, t_cm: float, t_p: float | None = None) -> float:
    """Compute-resource utilization T_cp / (T_cp + T_cm) of one task.

    Boundary conventions: no communication (t_cm == 0) means the task never
    ran, so u_c = 0; likewise when the communication consumes the whole slot
    (t_cm >= t_p, if a slot length is supplied).
    """
    real("t_cp", t_cp, "[0, inf)")
    real("t_cm", t_cm, "[0, inf)")
    if t_cm == 0.0:
        return 0.0
    if t_p is not None and t_cm >= t_p:
        return 0.0
    if t_cp == 0.0:
        return 0.0
    return t_cp / (t_cp + t_cm)


def compute_urb(alloc: RbAllocation, task_id: int, t_cm: float, t_p: float) -> float:
    """RB utilization (|k(i)| / K) * (t_cm / t_p) of one task."""
    real("t_p", t_p, "(0, inf)")
    real("t_cm", t_cm, "[0, inf)")
    if t_cm > t_p:
        raise ValueError(f"t_cm={t_cm} exceeds the slot length t_p={t_p}")
    return (alloc.rb_count(task_id) / alloc.k_rbs) * (t_cm / t_p)


def compute_ucc(schedule: Iterable[tuple[float, float]]) -> UccResult:
    """Aggregate efficiency sum(u_c * u_rb) over (u_c, u_rb) pairs.

    feasible is False when either utilization budget (sum u_c <= 1,
    sum u_rb <= 1) is violated.
    """
    pairs = list(schedule)
    for u_c, u_rb in pairs:
        real("u_c", u_c, "[0, 1]")
        real("u_rb", u_rb, "[0, 1]")
    value = math.fsum(u_c * u_rb for u_c, u_rb in pairs)
    uc_total = math.fsum(u_c for u_c, _ in pairs)
    urb_total = math.fsum(u_rb for _, u_rb in pairs)
    tol = 1e-12
    feasible = uc_total <= 1.0 + tol and urb_total <= 1.0 + tol
    return UccResult(value, uc_total, urb_total, feasible)


def ucc_case1(u_c: Sequence[float], mu: Sequence[float], cfg: CecConfig) -> float:
    """Efficiency under the ideal equal-share case: sum u_c(i) * (c/N) * mu(i)."""
    if len(u_c) != len(mu):
        raise ValueError("u_c and mu must have equal length")
    share = cfg.c / cfg.n_tasks
    return math.fsum(u * share * m for u, m in zip(u_c, mu))


def ucc_case1_bound(cfg: CecConfig) -> float:
    """Upper bound of the ideal case: U_cc <= c, with equality at u_c = mu = 1."""
    return cfg.c


def _check_times(t_cp: float, t_cm=None) -> None:
    """t_cp, and t_cm when given (a scalar, or a numpy grid checked at its least and greatest
    value, which are NaN when any value is), must be finite and > 0."""
    if t_cm is not None:
        for value in (t_cm.min(), t_cm.max()) if isinstance(t_cm, np.ndarray) else (t_cm,):
            real("t_cm", value, "(0, inf)")
    real("t_cp", t_cp, "(0, inf)")


def _check_padding(cfg: CecConfig) -> None:
    # CecConfig admits c0 = 0 for the adaptive slot; a padded slot of
    # N*c0 = 0 has no optimum (T_cm = 0) for the closed forms to evaluate.
    real("the padded slot's c0", cfg.c0, "(0, inf)")


def ucc_case2(t_cm: float, t_cp: float, cfg: CecConfig):
    """Efficiency of N homogeneous tasks under an adaptive slot.

    The slot adapts to the traffic: T_p = c0 + T_cm + N*T_cp, giving

        U_cc = c * T_cp * T_cm / ((T_cm + T_cp) * (c0 + T_cm + N*T_cp))

    Accepts scalars or numpy arrays for t_cm.
    """
    _check_times(t_cp, t_cm)
    return cfg.c * t_cp * t_cm / ((t_cm + t_cp) * (cfg.c0 + t_cm + cfg.n_tasks * t_cp))


def optimal_tcm_case2(t_cp: float, cfg: CecConfig) -> float:
    """Adaptive-slot optimum T_cm = sqrt(T_cp * (N*T_cp + c0))."""
    _check_times(t_cp)
    return math.sqrt(t_cp * (cfg.n_tasks * t_cp + cfg.c0))


def ucc_case3(t_cm: float, t_cp: float, cfg: CecConfig):
    """Efficiency of N homogeneous tasks under a padded constant slot.

    The slot is padded to the constant length T_p = N*c0 + T_cm, giving

        U_cc = c * T_cp * T_cm / ((T_cm + T_cp) * (N*c0 + T_cm))

    Accepts scalars or numpy arrays for t_cm.
    """
    _check_padding(cfg)
    _check_times(t_cp, t_cm)
    return cfg.c * t_cp * t_cm / ((t_cm + t_cp) * (cfg.n_tasks * cfg.c0 + t_cm))


def optimal_tcm_case3(t_cp: float, cfg: CecConfig) -> float:
    """Padded-slot optimum T_cm = sqrt(N * c0 * T_cp).

    Warns when N*c0 == T_cp, where the derivative test behind the closed form
    degenerates (the returned value is still the argmax).
    """
    _check_padding(cfg)
    _check_times(t_cp)
    pad = cfg.n_tasks * cfg.c0
    if pad == t_cp:
        warnings.warn(
            f"degenerate padded-slot case: N*c0 == T_cp == {t_cp}",
            DegenerateScheduleWarning,
            stacklevel=2,
        )
    return math.sqrt(pad * t_cp)


def ucc_case3_at_optimum(t_cp: float, cfg: CecConfig) -> float:
    """Padded-slot efficiency evaluated at its own optimum.

    Substituting the optimal T_cm collapses the case-III expression to
    c * T_cp / (sqrt(N*c0) + sqrt(T_cp))^2.
    """
    _check_padding(cfg)
    _check_times(t_cp)
    return cfg.c * t_cp / (math.sqrt(cfg.n_tasks * cfg.c0) + math.sqrt(t_cp)) ** 2


def weighted_objective(tasks: Sequence[TaskProfile], cfg: CecConfig, t_p: float) -> float:
    """Set-packing form of the scheduling objective: sum W(i) * |k(i)|.

    W(i) = (1/K) * (T_p/T_cm(i) + T_p/T_cp(i))^-1, which stays below one for
    any task whose times fit in the slot.
    """
    real("t_p", t_p, "(0, inf)")
    total = 0.0
    for task in tasks:
        real(f"task {task.task_id}'s t_cm", task.t_cm, "(0, inf)")
        real(f"task {task.task_id}'s t_cp", task.t_cp, "(0, inf)")
        weight = (1.0 / cfg.k_rbs) / (t_p / task.t_cm + t_p / task.t_cp)
        total += weight * len(task.rb_set)
    return total


def expected_times_gaussian(scaling: TrafficScaling) -> tuple[float, float]:
    """Expected (t_cm, t_cp) when traffic scales by a ~ N(mean, std^2).

    Times are proportional to the data volume, so the expectations are just
    the baselines scaled by the mean.
    """
    return scaling.t_cm0 * scaling.mean, scaling.t_cp0 * scaling.mean


def allocate_rbs_equal(cfg: CecConfig) -> RbAllocation:
    """Partition the whole RB pool as equally as possible across tasks.

    The first K mod N tasks (ascending task index) receive ceil(K/N) blocks
    and the rest floor(K/N), so the counts differ by at most one and every RB
    is assigned exactly once. The configured ratio c scales the analytic RB
    share in the closed forms; the physical partition always hands out the
    full pool.
    """
    n, k = cfg.n_tasks, cfg.k_rbs
    if n > k:
        raise ValueError(
            f"cannot give each of {n} tasks at least one of {k} RBs; need N <= K"
        )
    base, extra = divmod(k, n)
    indicator = np.zeros((n, k), dtype=np.int8)
    next_rb = 0
    for task in range(n):
        count = base + (1 if task < extra else 0)
        indicator[task, next_rb : next_rb + count] = 1
        next_rb += count
    return RbAllocation(indicator)
