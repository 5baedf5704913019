"""The range rule and the count rule, at every numeric argument that goes through them."""
import math
import re

import numpy as np
import pytest

from cecbench import _checks
from cecbench.cec import (
    CecConfig,
    TaskProfile,
    TrafficScaling,
    allocate_rbs_equal,
    compute_uc,
    compute_ucc,
    compute_urb,
    optimal_tcm_case2,
    optimal_tcm_case3,
    ucc_case2,
    ucc_case3,
    ucc_case3_at_optimum,
    weighted_objective,
)
from cecbench.channel import ChannelParams
from cecbench.config import ConfigError, apply_override, default_config
from cecbench.fdd import MeanShift, VarianceBump, fit_pca, generate_synthetic_te
from cecbench.protocols import (
    HarqParams,
    NetworkShape,
    OccupyCowParams,
    Protocol,
    harq_expected_rounds,
    harq_latency,
    harq_pfail,
    occupycow_pfail,
    occupycow_phase_probs,
    occupycow_void_probability,
    reflexup_latency,
    reflexup_pfail,
    split_nodes,
    srarq_pfail,
)
from cecbench.sim import FlowSpec, build_flows, estimate_pfail, measure_cec, relay_topology, run_baseline, run_reflexup, star_topology

CFG = CecConfig(4, 20, 1.0, 0.05)
CHAN = ChannelParams(40.0, 20e6, 200e3)
SHAPE = split_nodes(250, 0.2, 176)
OC_PARAMS = OccupyCowParams(0.1, 0.1, 0.5, 1e-3, 1e-3)
HARQ = HarqParams(7, 2)
TRAINING = generate_synthetic_te(100, 0, None, seed=1, n_vars=4)[0]
STAR = star_topology(2)
RELAY = relay_topology(2, 1)
TRACE = run_reflexup(RELAY, build_flows(RELAY, 1, deadline=1.0), CHAN, CFG, seed=0)

# Each numeric argument that goes through a rule, by test id: (the name its error starts
# with, a call that passes the value to that argument alone). Among them are the calls
# that once took NaN, +inf or a bool without an error, or named the wrong argument:
# CecConfig's c0, OccupyCowParams' t1, NetworkShape's relay_fanout, harq_latency's d_hat,
# ucc_case3's t_cp, reflexup_pfail's t_vs, HarqParams' max_rounds and run_reflexup's max_rounds.
REALS = {
    "data_bits": ("data_bits", lambda v: TaskProfile(0, v, 0.1, 0.1)),
    "t_cp": ("t_cp", lambda v: TaskProfile(0, 1.0, v, 0.1)),
    "t_cm": ("t_cm", lambda v: TaskProfile(0, 1.0, 0.1, v)),
    "c": ("c", lambda v: CecConfig(4, 20, v)),
    "c0": ("c0", lambda v: CecConfig(4, 20, 1.0, v)),
    "std": ("std", lambda v: TrafficScaling(1.0, v, 0.1, 0.1)),
    "mean": ("mean", lambda v: TrafficScaling(v, 0.1, 0.1, 0.1)),
    "compute_uc t_cp": ("t_cp", lambda v: compute_uc(v, 0.1)),
    "compute_uc t_cm": ("t_cm", lambda v: compute_uc(0.1, v)),
    "compute_urb t_p": ("t_p", lambda v: compute_urb(allocate_rbs_equal(CFG), 0, 0.1, v)),
    "compute_urb t_cm": ("t_cm", lambda v: compute_urb(allocate_rbs_equal(CFG), 0, v, 1.0)),
    "u_c": ("u_c", lambda v: compute_ucc([(v, 0.5)])),
    "u_rb": ("u_rb", lambda v: compute_ucc([(0.5, v)])),
    "ucc_case2 t_cm": ("t_cm", lambda v: ucc_case2(v, 0.1, CFG)),
    "ucc_case2 t_cp": ("t_cp", lambda v: ucc_case2(0.1, v, CFG)),
    "ucc_case3 t_cm": ("t_cm", lambda v: ucc_case3(v, 0.1, CFG)),
    "ucc_case3 grid t_cm": ("t_cm", lambda v: ucc_case3(np.array([0.1, v, 0.2]), 0.1, CFG)),
    "ucc_case3 t_cp": ("t_cp", lambda v: ucc_case3(1.0, v, CFG)),
    "optimal_tcm_case2 t_cp": ("t_cp", lambda v: optimal_tcm_case2(v, CFG)),
    "optimal_tcm_case3 t_cp": ("t_cp", lambda v: optimal_tcm_case3(v, CFG)),
    "ucc_case3_at_optimum t_cp": ("t_cp", lambda v: ucc_case3_at_optimum(v, CFG)),
    "weighted_objective t_p": ("t_p", lambda v: weighted_objective([TaskProfile(0, 1.0, 0.1, 0.1)], CFG, v)),
    "relay_fanout": ("relay_fanout", lambda v: NetworkShape(3, 2, 1, v, 176)),
    "relay_sensor_ratio": ("relay_sensor_ratio", lambda v: split_nodes(10, v, 176)),
    "p1": ("p1", lambda v: OccupyCowParams(v, 0.1, 0.5, 1.0, 1.0)),
    "p2": ("p2", lambda v: OccupyCowParams(0.1, v, 0.5, 1.0, 1.0)),
    "p12": ("p12", lambda v: OccupyCowParams(0.1, 0.1, v, 1.0, 1.0)),
    "OccupyCowParams t1": ("t1", lambda v: OccupyCowParams(0.1, 0.1, 0.5, v, 1.0)),
    "OccupyCowParams t2": ("t2", lambda v: OccupyCowParams(0.1, 0.1, 0.5, 1.0, v)),
    "p_timeout": ("p_timeout", lambda v: srarq_pfail(v, 0.1)),
    "p_error": ("p_error", lambda v: srarq_pfail(0.1, v)),
    "d_hat": ("d_hat", lambda v: harq_latency(SHAPE, CHAN, v)),
    "occupycow_phase_probs t1": ("t1", lambda v: occupycow_phase_probs(SHAPE, CHAN, v, 1e-3)),
    "occupycow_phase_probs t2": ("t2", lambda v: occupycow_phase_probs(SHAPE, CHAN, 1e-3, v)),
    "t_vs": ("t_vs", lambda v: reflexup_pfail(SHAPE, CHAN, t_vs=v)),
    "factor": ("factor", lambda v: VarianceBump(0, v)),
    "alpha": ("alpha", lambda v: fit_pca(TRAINING, 2, v)),
    "epsilon": ("epsilon", lambda v: FlowSpec(0, ("v1",), 1, v, 1.0)),
    "deadline": ("deadline", lambda v: FlowSpec(0, ("v1",), 1, 1.0, v)),
    "t_cp_per_task": ("t_cp_per_task", lambda v: measure_cec(TRACE, CFG, v)),
}
# Rates: an overflowing rate means certain outage, so +inf is admitted.
RATES = {
    "rate_phase1": ("rate_phase1", lambda v: reflexup_latency(SHAPE, CHAN, CFG, 0.005, rate_phase1=v)),
    "rate_phase2": ("rate_phase2", lambda v: reflexup_latency(SHAPE, CHAN, CFG, 0.005, rate_phase2=v)),
    "reflexup_pfail rate_phase2": ("rate_phase2", lambda v: reflexup_pfail(SHAPE, CHAN, 1e-5, rate_phase2=v)),
}
COUNTS = {
    "n_tasks": ("n_tasks", lambda v: CecConfig(v, 20, 1.0)),
    "k_rbs": ("k_rbs", lambda v: CecConfig(4, v, 1.0)),
    "n_total": ("n_total", lambda v: NetworkShape(v, 2, 1, 2.0, 176)),
    "n_sensors": ("n_sensors", lambda v: NetworkShape(3, v, 1, 2.0, 176)),
    "n_relays": ("n_relays", lambda v: NetworkShape(3, 2, v, 2.0, 176)),
    "packet_bits": ("packet_bits", lambda v: NetworkShape(3, 2, 1, 2.0, v)),
    "split_nodes n_total": ("n_total", lambda v: split_nodes(v, 0.2, 176)),
    "max_rounds": ("max_rounds", lambda v: HarqParams(v, 2)),
    "run_reflexup max_rounds": ("max_rounds", lambda v: run_reflexup(RELAY, build_flows(RELAY, 1, 1.0), CHAN, CFG, 0, max_rounds=v)),
    "diversity_order": ("diversity_order", lambda v: HarqParams(7, v)),
    "harq_pfail trials": ("trials", lambda v: harq_pfail(CHAN, HARQ, v)),
    "harq_expected_rounds trials": ("trials", lambda v: harq_expected_rounds(CHAN, HARQ, v)),
    "occupycow_pfail n": ("n", lambda v: occupycow_pfail(v, OC_PARAMS)),
    "occupycow_void_probability n": ("n", lambda v: occupycow_void_probability(v, OC_PARAMS)),
    "n_components": ("n_components", lambda v: fit_pca(TRAINING, v)),
    "n_normal": ("n_normal", lambda v: generate_synthetic_te(v, 0, None, seed=1, n_vars=4)),
    "n_fault": ("n_fault", lambda v: generate_synthetic_te(10, v, None, seed=1, n_vars=4)),
    "fault variable": ("fault variable", lambda v: generate_synthetic_te(10, 5, MeanShift((1, v), 4.0), seed=1, n_vars=4)),
    "relay_topology n_sensors": ("n_sensors", lambda v: relay_topology(v, 1)),
    "relay_topology n_relays": ("n_relays", lambda v: relay_topology(4, v)),
    "star_topology n_sensors": ("n_sensors", lambda v: star_topology(v)),
    "build_flows n_tasks": ("n_tasks", lambda v: build_flows(STAR, v, 1.0)),
    "build_flows packets_per_task": ("packets_per_task", lambda v: build_flows(STAR, 1, 1.0, packets_per_task=v)),
    "task_id": ("task_id", lambda v: FlowSpec(v, ("v1",), 1, 1.0, 1.0)),
    "packets_required": ("packets_required", lambda v: FlowSpec(0, ("v1",), v, 1.0, 1.0)),
    "runs": ("runs", lambda v: estimate_pfail(v, lambda s: None, seed=0)),
}


def _rejects(call, value, name):
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must "):
        call(value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", REALS)
def test_every_real_argument_rejects_nan_and_inf(key, value):
    name, call = REALS[key]
    _rejects(call, value, name)


@pytest.mark.parametrize("key", RATES)
def test_rates_reject_nan_but_admit_inf(key):
    name, call = RATES[key]
    _rejects(call, math.nan, name)
    call(math.inf)


@pytest.mark.parametrize("value", [True, False, 2.5, np.float64(3.0), math.nan, "3"], ids=repr)
@pytest.mark.parametrize("key", COUNTS)
def test_every_count_rejects_bools_and_non_integers(key, value):
    name, call = COUNTS[key]
    _rejects(call, value, name)


def test_counts_take_numpy_integers():
    assert HarqParams(np.int64(7), np.uint8(2)) == HARQ
    assert relay_topology(np.int32(4), np.int64(2)) == relay_topology(4, 2)
    assert star_topology(np.int64(2)) == STAR
    assert build_flows(STAR, np.int32(2), 1.0, packets_per_task=np.int64(2)) == build_flows(STAR, 2, 1.0)
    assert estimate_pfail(np.int64(1000), lambda s: TRACE, seed=0).trials == 1000


@pytest.mark.parametrize(
    "name, call",
    [("n_sensors", lambda: star_topology(-2)), ("n_sensors", lambda: star_topology(0)),
     ("n_tasks", lambda: build_flows(STAR, 0, 1.0)), ("packets_per_task", lambda: build_flows(STAR, 1, 1.0, packets_per_task=0))],
)
def test_topology_and_flow_counts_start_at_one(name, call):
    # An empty star has no sensor, as a relay topology never had; a flow list needs a task.
    with pytest.raises(ValueError, match=rf"^{name} must be an integer >= 1, "):
        call()


@pytest.mark.parametrize(
    "section, key, text",
    [("cec", "c0", "nan"), ("cec", "c0", "inf"), ("channel", "snr_db", "-inf"), ("protocol", "p_timeout", "nan"),
     ("cec", "n_tasks", "2.5"), ("cec", "n_tasks", "True"), ("experiment", "trials", "100")],
)
def test_config_keys_go_through_the_same_rules(section, key, text):
    with pytest.raises(ConfigError, match=rf"^\[{section}\] {key}: "):
        apply_override(default_config(), section, key, text)


# Values that probe each end of every interval the checks below use.
PROBES = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 0.5, 1.0, 1.5, 1e308, -1.0,
          0, 1, 2, 176, -3, True, False, 2.5, np.int64(176), np.float64(176.0), np.uint8(1)]


def _accepts(call, value) -> bool:
    try:
        call(value)
    except ValueError:
        return False
    return True

OC_FLOWS = [FlowSpec(i, (f"v{i + 1}",), 1, 1.0, 1.0) for i in range(2)]
PERFECT = ChannelParams(600, 20e6, 200e3)
OC = Protocol.OCCUPY_COW
# The channel's inline checks, each against the rule it writes out, and the simulator's
# run arguments, each against the rule its set-up calls.
INLINE = {
    "ChannelParams snr_db": (lambda v: ChannelParams(v, 20e6, 200e3), lambda v: _checks.real("", v, "(-inf, inf)")),
    "ChannelParams bandwidth_hz": (lambda v: ChannelParams(40.0, v, 200e3), lambda v: _checks.real("", v, "(0, inf)")),
    "ChannelParams rate_bps": (lambda v: ChannelParams(40.0, 20e6, v), lambda v: _checks.real("", v, "(0, inf]")),
    "_Run packet_bits": (
        lambda v: run_baseline(OC, STAR, OC_FLOWS, PERFECT, seed=0, packet_bits=v),
        lambda v: _checks.integer("", v, 1),
    ),
    "_Run p_timeout": (
        lambda v: run_baseline(OC, STAR, OC_FLOWS, PERFECT, seed=0, p_timeout=v),
        lambda v: _checks.real("", v, "[0, 1]"),
    ),
    "_run_occupy_cow t1": (
        lambda v: run_baseline(OC, STAR, OC_FLOWS, PERFECT, seed=0, oc_t1=v, oc_t2=1e-3),
        lambda v: _checks.real("", v, "(0, inf)"),
    ),
    "_run_occupy_cow t2": (
        lambda v: run_baseline(OC, STAR, OC_FLOWS, PERFECT, seed=0, oc_t1=1e-3, oc_t2=v),
        lambda v: _checks.real("", v, "(0, inf)"),
    ),
}


@pytest.mark.parametrize("key", INLINE)
def test_inline_checks_accept_exactly_what_the_rules_accept(key):
    inline, rule = INLINE[key]
    assert [_accepts(inline, v) for v in PROBES] == [_accepts(rule, v) for v in PROBES]
