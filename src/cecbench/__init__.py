"""cecbench: communication/edge-computing loop models for 5G sensing services.

Subpackages:
    channel   - Rayleigh outage closed form and the shared fade sampler.
    cec       - loop-efficiency model, closed-form optima, RB allocation.
    protocols - analytic latency/reliability of the four uplink schemes.
    sim       - slotted discrete-event execution of the protocols.
    fdd       - PCA process monitoring (fit, score, synthetic data, CSV I/O).
    config    - strict INI experiment configs with evaluation defaults.
    figures   - sweep datasets reproducing the reference curves.
    cli       - the cec-bench command-line entry point.
"""
from .channel import ChannelParams, outage_probability, spawn_stream
from .cec import (
    CecConfig,
    RbAllocation,
    ScheduleResult,
    TaskProfile,
    TrafficScaling,
    allocate_rbs_equal,
    compute_uc,
    compute_ucc,
    compute_urb,
    expected_times_gaussian,
    optimal_tcm_case2,
    optimal_tcm_case3,
    ucc_case1_bound,
    ucc_case2,
    ucc_case3,
    weighted_objective,
)
from .protocols import (
    HarqParams,
    MonteCarloEstimate,
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
    srarq_latency,
    srarq_pfail,
)
from .sim import (
    FlowSpec,
    SimTrace,
    Topology,
    build_flows,
    estimate_pfail,
    export_trace,
    measure_cec,
    relay_topology,
    run_baseline,
    run_reflexup,
    star_topology,
)
from .fdd import (
    DetectionResult,
    PcaModel,
    ProcessSample,
    fit_pca,
    generate_synthetic_te,
    ingest_csv,
    score,
)
from .config import ExperimentConfig, validate_config
from .figures import run_experiment

__version__ = "0.1.0"
