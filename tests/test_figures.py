import pytest

from cecbench import figures
from cecbench.cli import main
from cecbench.config import default_config
from cecbench.figures import _chan, _point_seed, build_figure
from cecbench.protocols import (
    HarqParams,
    Protocol,
    harq_expected_rounds,
    harq_latency,
    split_nodes,
)


@pytest.fixture
def harq_calls(monkeypatch):
    """Seeds passed to harq_expected_rounds by the figure builders."""
    seeds = []

    def counting(chan, params, trials, seed=0):
        seeds.append(seed)
        return harq_expected_rounds(chan, params, trials, seed)

    monkeypatch.setattr(figures, "harq_expected_rounds", counting)
    return seeds


def test_default_run_estimates_harq_rounds_once_per_figure(tmp_path, harq_calls):
    config = tmp_path / "default.ini"
    config.write_text("")
    assert main(["run", str(config), "--out", str(tmp_path / "a")]) == 0
    # fig9, fig10 and fig11 each draw one estimate, at their first sweep point.
    assert harq_calls == [_point_seed(0, tag, 0) for tag in ("fig9_ucc", "fig10_ucc", "fig11_tcm")]
    # A second run draws its estimates again: nothing is cached across runs.
    assert main(["run", str(config), "--out", str(tmp_path / "b")]) == 0
    assert len(harq_calls) == 6


def test_no_harq_estimate_without_harq(harq_calls):
    cfg = default_config()
    cfg.protocols = (Protocol.SELECTIVE_REPEAT_ARQ, Protocol.REFLEXUP)
    for tag in ("fig9_ucc", "fig10_ucc", "fig11_tcm"):
        build_figure(cfg, tag)
    assert harq_calls == []


def test_fig11_harq_series_shares_one_estimate():
    # At the default 20 MHz, 10 dB still gives d_hat = 1 exactly; a 200 kHz band
    # (R/W = 1) makes the channel lossy enough for d_hat to vary by seed.
    cfg = default_config()
    cfg.snr_db = 10.0
    cfg.trials = 10_000
    cfg.bandwidth_hz = 200e3
    chan = _chan(cfg)
    params = HarqParams(cfg.harq_max_rounds, cfg.harq_diversity)
    d_hat = harq_expected_rounds(chan, params, cfg.trials, _point_seed(cfg.seed, "fig11_tcm", 0))
    assert d_hat.value > 1.0
    ds = build_figure(cfg, "fig11_tcm")
    harq = ds.series(Protocol.HARQ.value)
    assert [x for x, _ in harq] == [float(n) for n in sorted(cfg.n_g_grid)]
    for n_g, t_cm in harq:
        shape = split_nodes(int(n_g), cfg.relay_sensor_ratio, cfg.packet_bits)
        assert t_cm == harq_latency(shape, chan, d_hat.value)
