import itertools
import math
import warnings

import numpy as np
import pytest

from cecbench.cec import (
    CecConfig,
    DegenerateScheduleWarning,
    RbAllocation,
    TaskProfile,
    TrafficScaling,
    allocate_rbs_equal,
    compute_uc,
    compute_ucc,
    compute_urb,
    expected_times_gaussian,
    optimal_tcm_case2,
    optimal_tcm_case3,
    ucc_case1,
    ucc_case1_bound,
    ucc_case2,
    ucc_case3,
    ucc_case3_at_optimum,
    weighted_objective,
)
from cecbench.sim import reflexup_plan

CFG = CecConfig(n_tasks=100, k_rbs=200, c=1.5, c0=1.5)


# ---------------------------------------------------------------- utilizations


def test_uc_symmetry():
    assert compute_uc(0.3, 0.3) == 0.5


def test_uc_no_communication_is_zero():
    assert compute_uc(0.7, 0.0) == 0.0
    assert compute_uc(0.0, 0.0) == 0.0


def test_uc_fast_communication_limit():
    assert compute_uc(0.5, 1e-12) == pytest.approx(1.0, abs=1e-9)


def test_uc_full_slot_is_zero():
    assert compute_uc(0.5, 2.0, t_p=2.0) == 0.0
    assert compute_uc(0.5, 1.9, t_p=2.0) > 0.0


def test_uc_strictly_interior():
    rng = np.random.default_rng(0)
    t_p = 1.0
    for _ in range(200):
        t_cm = rng.uniform(1e-6, t_p * 0.999)
        t_cp = rng.uniform(1e-6, 1.0)
        u = compute_uc(t_cp, t_cm, t_p=t_p)
        assert 0.0 < u < 1.0


def test_uc_rejects_negative():
    with pytest.raises(ValueError):
        compute_uc(-0.1, 0.5)


def test_urb_full_pool():
    alloc = allocate_rbs_equal(CecConfig(n_tasks=1, k_rbs=4, c=1.0))
    assert compute_urb(alloc, 0, t_cm=2.0, t_p=2.0) == 1.0


def test_urb_partial():
    # K = 10, task holds 2 RBs, half the slot -> 0.1
    ind = np.zeros((2, 10), dtype=int)
    ind[0, :2] = 1
    ind[1, 2:] = 1
    alloc = RbAllocation(ind)
    assert compute_urb(alloc, 0, t_cm=1.0, t_p=2.0) == pytest.approx(0.1)


def test_urb_zero_rbs():
    ind = np.zeros((2, 3), dtype=int)
    ind[1, :] = 1
    alloc = RbAllocation(ind)
    assert compute_urb(alloc, 0, t_cm=1.0, t_p=2.0) == 0.0


def test_urb_rejects_overlong_communication():
    alloc = allocate_rbs_equal(CecConfig(n_tasks=2, k_rbs=4, c=1.0))
    with pytest.raises(ValueError):
        compute_urb(alloc, 0, t_cm=3.0, t_p=2.0)


def test_ucc_empty():
    assert compute_ucc([]).value == 0.0


def test_ucc_hand_arithmetic():
    res = compute_ucc([(0.3, 0.1), (0.2, 0.05)])
    assert res.value == pytest.approx(0.04)
    assert res.feasible


def test_ucc_single_task_reaches_bound():
    # One task at u_c = mu = 1 with the c/N share lands exactly on the bound.
    cfg = CecConfig(n_tasks=1, k_rbs=4, c=0.8)
    res = compute_ucc([(1.0, cfg.c / cfg.n_tasks * 1.0)])
    assert res.value == pytest.approx(ucc_case1_bound(cfg))


def test_ucc_flags_budget_violation():
    res = compute_ucc([(0.8, 0.1), (0.8, 0.1)])
    assert not res.feasible
    with pytest.raises(ValueError):
        compute_ucc([(1.2, 0.1)])


# ---------------------------------------------------------------- case I bound


def test_case1_bound_is_c():
    assert ucc_case1_bound(CecConfig(n_tasks=10, k_rbs=50, c=1.5)) == 1.5


def test_case1_random_schedules_below_bound():
    cfg = CecConfig(n_tasks=20, k_rbs=100, c=2.5)
    rng = np.random.default_rng(1)
    for _ in range(2000):
        u_c = rng.uniform(0, 1, cfg.n_tasks)
        mu = rng.uniform(0, 1, cfg.n_tasks)
        assert ucc_case1(u_c, mu, cfg) <= cfg.c + 1e-12


def test_case1_equality_at_unit_utilizations():
    cfg = CecConfig(n_tasks=17, k_rbs=100, c=2.0)
    ones = [1.0] * cfg.n_tasks
    assert ucc_case1(ones, ones, cfg) == pytest.approx(cfg.c, rel=1e-12)
    with pytest.raises(ValueError, match="equal length"):
        ucc_case1(ones, ones[1:], cfg)


# ------------------------------------------------------------- cases II / III


def test_case2_limits():
    assert ucc_case2(1e-9, 0.005, CFG) < 1e-6
    assert ucc_case2(1e9, 0.005, CFG) < 1e-6


def test_case2_optimum_value():
    # sqrt(0.005 * (100*0.005 + 1.5)) = sqrt(0.01) = 0.1
    assert optimal_tcm_case2(0.005, CFG) == pytest.approx(0.1)
    assert optimal_tcm_case2(0.5, CFG) == pytest.approx(math.sqrt(0.5 * 51.5))


def test_case2_optimum_reduces_without_interval():
    cfg = CecConfig(n_tasks=1, k_rbs=4, c=1.0, c0=0.0)
    assert optimal_tcm_case2(0.37, cfg) == pytest.approx(0.37)


def test_case2_grid_search_confirms_argmax():
    grid = np.linspace(1e-4, 10.0, 100_000)
    values = ucc_case2(grid, 0.005, CFG)
    t_grid = float(grid[np.argmax(values)])
    assert t_grid == pytest.approx(0.1, rel=1e-3)
    # The closed-form point dominates every grid point.
    best = ucc_case2(optimal_tcm_case2(0.005, CFG), 0.005, CFG)
    assert best >= values.max() - 1e-15


def test_case3_limits():
    assert ucc_case3(1e-9, 0.5, CFG) < 1e-6
    assert ucc_case3(1e9, 0.5, CFG) < 1e-6


def test_case3_optimum_values():
    assert optimal_tcm_case3(0.5, CFG) == pytest.approx(math.sqrt(75.0))
    assert optimal_tcm_case3(0.005, CFG) == pytest.approx(math.sqrt(0.75))


def test_case3_rejects_zero_interval():
    # The adaptive slot takes c0 = 0 (test_case2_optimum_reduces_without_interval);
    # the padded slot names c0 instead of failing later on T_cm = 0.
    cfg = CecConfig(n_tasks=3, k_rbs=8, c=1.0, c0=0.0)
    for call in (
        lambda: optimal_tcm_case3(0.5, cfg),
        lambda: ucc_case3(0.2, 0.5, cfg),
        lambda: ucc_case3(np.array([0.1, 0.2]), 0.5, cfg),
        lambda: ucc_case3_at_optimum(0.5, cfg),
        lambda: reflexup_plan(cfg, 0.5),
    ):
        with pytest.raises(ValueError, match="c0"):
            call()


def test_case3_grid_search_confirms_argmax():
    grid = np.linspace(1e-3, 20.0, 100_000)
    values = ucc_case3(grid, 0.5, CFG)
    assert float(grid[np.argmax(values)]) == pytest.approx(math.sqrt(75.0), rel=1e-3)


def test_case3_degenerate_flagged():
    cfg = CecConfig(n_tasks=1, k_rbs=4, c=1.0, c0=0.4)
    with pytest.warns(DegenerateScheduleWarning):
        value = optimal_tcm_case3(0.4, cfg)
    assert value == pytest.approx(0.4)


def test_reflexup_plan_warns_on_every_degenerate_call():
    # Each call computes the plan and warns at its caller; a simulator run calls it
    # once per set-up, so a degenerate estimate warns once per set-up, not once per run.
    cfg = CecConfig(n_tasks=1, k_rbs=4, c=1.0, c0=0.4)
    for _ in range(3):
        with pytest.warns(DegenerateScheduleWarning) as caught:
            assert reflexup_plan(cfg, 0.4) == pytest.approx((0.4, 0.8))
        assert len(caught) == 1 and caught[0].filename == __file__
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateScheduleWarning):
            reflexup_plan(cfg, 0.4)
        assert reflexup_plan(cfg, 0.5) == reflexup_plan(cfg, 0.5)


def test_case3_at_optimum_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(100):
        cfg = CecConfig(
            n_tasks=int(rng.integers(1, 200)),
            k_rbs=500,
            c=float(rng.uniform(0.1, 3.0)),
            c0=float(rng.uniform(0.05, 4.0)),
        )
        t_cp = float(rng.uniform(1e-4, 1.0))
        direct = ucc_case3(optimal_tcm_case3(t_cp, cfg), t_cp, cfg)
        assert ucc_case3_at_optimum(t_cp, cfg) == pytest.approx(direct, rel=1e-12)


@pytest.mark.parametrize("counts", [(2.5, 10), (2, 10.0), (np.float64(2.0), 10)])
def test_config_counts_must_be_integers(counts):
    # A fractional count used to construct, then fail in allocate_rbs_equal.
    with pytest.raises(ValueError, match="must be an integer"):
        CecConfig(*counts, c=1.0)


def test_config_counts_accept_numpy_integers():
    alloc = allocate_rbs_equal(CecConfig(np.int64(2), np.int32(4), c=1.0))
    assert np.array_equal(alloc.indicator, allocate_rbs_equal(CecConfig(2, 4, c=1.0)).indicator)


def test_cases_reject_nonpositive_times():
    for fn in (ucc_case2, ucc_case3):
        with pytest.raises(ValueError):
            fn(0.0, 0.5, CFG)
        with pytest.raises(ValueError):
            fn(0.5, 0.0, CFG)
    for fn in (optimal_tcm_case2, optimal_tcm_case3):
        with pytest.raises(ValueError):
            fn(0.0, CFG)


# ------------------------------------------------------------ set-packing form


def _task(i, t_cp, t_cm, rbs):
    return TaskProfile(task_id=i, data_bits=1000.0, t_cp=t_cp, t_cm=t_cm, rb_set=frozenset(rbs))


def test_weighted_objective_empty_rb_set():
    cfg = CecConfig(n_tasks=1, k_rbs=8, c=1.0)
    assert weighted_objective([_task(0, 0.1, 0.2, [])], cfg, t_p=1.0) == 0.0


def test_weighted_objective_weights_below_one():
    cfg = CecConfig(n_tasks=4, k_rbs=8, c=1.0)
    rng = np.random.default_rng(5)
    t_p = 1.0
    for _ in range(500):
        t_cm = float(rng.uniform(1e-3, t_p))
        t_cp = float(rng.uniform(1e-3, t_p))
        w = weighted_objective([_task(0, t_cp, t_cm, [1])], cfg, t_p)
        assert w < 1.0


def test_weighted_objective_two_equal_tasks():
    cfg = CecConfig(n_tasks=2, k_rbs=8, c=1.0)
    t_p, t_cm, t_cp = 1.0, 0.25, 0.1
    k_half = [_task(0, t_cp, t_cm, range(4)), _task(1, t_cp, t_cm, range(4, 8))]
    w_single = (1.0 / cfg.k_rbs) / (t_p / t_cm + t_p / t_cp)
    assert weighted_objective(k_half, cfg, t_p) == pytest.approx(cfg.k_rbs * w_single)


def test_weighted_objective_rejects_zero_times():
    cfg = CecConfig(n_tasks=1, k_rbs=8, c=1.0)
    with pytest.raises(ValueError):
        weighted_objective([_task(0, 0.0, 0.2, [1])], cfg, t_p=1.0)


def test_weighted_objective_matches_enumeration_oracle():
    # Brute force over every RB -> task assignment for small instances: the
    # objective is linear in the counts, so the enumerated maximum must be
    # K * max W(i), and any full partition of equal tasks ties.
    cfg = CecConfig(n_tasks=3, k_rbs=6, c=1.0)
    t_p = 1.0
    times = [(0.2, 0.05), (0.4, 0.3), (0.1, 0.02)]
    weights = [
        (1.0 / cfg.k_rbs) / (t_p / t_cm + t_p / t_cp) for t_cm, t_cp in times
    ]
    best = 0.0
    for assign in itertools.product(range(cfg.n_tasks), repeat=cfg.k_rbs):
        counts = [assign.count(i) for i in range(cfg.n_tasks)]
        best = max(best, sum(w * c_ for w, c_ in zip(weights, counts)))
    assert best == pytest.approx(cfg.k_rbs * max(weights))
    tasks = [
        _task(i, t_cp, t_cm, range(2 * i, 2 * i + 2))
        for i, (t_cm, t_cp) in enumerate(times)
    ]
    assert weighted_objective(tasks, cfg, t_p) <= best + 1e-15


# ------------------------------------------------------- irregular traffic


def test_expected_times_identity_scaling():
    s = TrafficScaling(mean=1.0, std=0.7, t_cm0=2.0, t_cp0=0.5)
    assert expected_times_gaussian(s) == (2.0, 0.5)


def test_expected_times_scaled():
    s = TrafficScaling(mean=3.0, std=0.1, t_cm0=2.0, t_cp0=0.5)
    assert expected_times_gaussian(s) == (6.0, 1.5)


def test_expected_times_monte_carlo():
    s = TrafficScaling(mean=1.7, std=0.4, t_cm0=2.0, t_cp0=0.5)
    rng = np.random.default_rng(11)
    draws = rng.normal(s.mean, s.std, 1_000_000)
    assert (draws * s.t_cm0).mean() == pytest.approx(s.t_cm0 * s.mean, rel=0.01)


def test_scaling_rejects_bad_mean():
    with pytest.raises(ValueError):
        TrafficScaling(mean=0.0, std=0.1, t_cm0=1.0, t_cp0=1.0)
    with pytest.raises(ValueError):
        TrafficScaling(mean=1.0, std=-0.1, t_cm0=1.0, t_cp0=1.0)


# ---------------------------------------------------------------- allocation


def test_equal_allocation_one_each():
    alloc = allocate_rbs_equal(CecConfig(n_tasks=4, k_rbs=4, c=1.0))
    assert [alloc.rb_count(i) for i in range(4)] == [1, 1, 1, 1]


def test_equal_allocation_table_sizes():
    alloc = allocate_rbs_equal(CFG)
    counts = [alloc.rb_count(i) for i in range(CFG.n_tasks)]
    assert max(counts) - min(counts) <= 1
    assert sum(counts) == CFG.k_rbs


def test_equal_allocation_partitions_pool():
    alloc = allocate_rbs_equal(CecConfig(n_tasks=3, k_rbs=8, c=1.0))
    ind = alloc.indicator
    assert int(ind.sum()) == 8
    assert (ind.sum(axis=0) == 1).all()


def test_equal_allocation_deterministic():
    a = allocate_rbs_equal(CecConfig(n_tasks=7, k_rbs=30, c=1.0))
    b = allocate_rbs_equal(CecConfig(n_tasks=7, k_rbs=30, c=1.0))
    assert np.array_equal(a.indicator, b.indicator)


def test_equal_allocation_infeasible():
    with pytest.raises(ValueError):
        allocate_rbs_equal(CecConfig(n_tasks=9, k_rbs=8, c=1.0))


def test_rb_allocation_rejects_overlap():
    ind = np.zeros((2, 2), dtype=int)
    ind[:, 0] = 1
    with pytest.raises(ValueError):
        RbAllocation(ind)


def test_rb_allocation_rejects_partial_pool():
    ind = np.zeros((2, 3), dtype=int)
    ind[0, 0] = 1
    with pytest.raises(ValueError):
        RbAllocation(ind)


@pytest.mark.parametrize(
    "indicator, message",
    [(np.ones(3, dtype=int), "2-D"), (np.array([[1, 0], [0, 2]]), "0/1"), (np.array([[0.5, 0.5]]), "0/1")],
)
def test_rb_allocation_rejects_malformed_indicator(indicator, message):
    with pytest.raises(ValueError, match=message):
        RbAllocation(indicator)


# -------------------------------------------------------------------- config


def test_config_c_range_below_pool():
    CecConfig(n_tasks=10, k_rbs=50, c=39.9)
    with pytest.raises(ValueError):
        CecConfig(n_tasks=10, k_rbs=50, c=40.0)


def test_config_c_range_saturated_pool():
    # N == K falls under the saturated branch: 0 < c <= 1.
    CecConfig(n_tasks=4, k_rbs=4, c=1.0)
    with pytest.raises(ValueError):
        CecConfig(n_tasks=4, k_rbs=4, c=1.01)
    CecConfig(n_tasks=8, k_rbs=4, c=0.5)
