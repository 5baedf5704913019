import hashlib
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cecbench import figures
from cecbench.cec import ucc_case3_at_optimum
from cecbench.cli import main
from cecbench.config import default_config
from cecbench.figures import FigureDataset, _point_seed, build_figure, summarize, write_dataset
from cecbench.protocols import (
    HarqParams,
    Protocol,
    harq_expected_rounds,
    harq_latency,
    reflexup_latency,
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
    chan = cfg.channel()
    params = HarqParams(cfg.harq_max_rounds, cfg.harq_diversity)
    d_hat = harq_expected_rounds(chan, params, cfg.trials, _point_seed(cfg.seed, "fig11_tcm", 0))
    assert d_hat.value > 1.0 and d_hat.bound is None
    ds = build_figure(cfg, "fig11_tcm")
    harq = ds.series(Protocol.HARQ.value)
    assert [x for x, _ in harq] == [float(n) for n in sorted(cfg.n_g_grid)]
    for n_g, t_cm in harq:
        shape = split_nodes(int(n_g), cfg.relay_sensor_ratio, cfg.packet_bits)
        assert t_cm == harq_latency(shape, chan, d_hat.value)


def test_fig11_harq_ci99_is_positive_without_spread():
    # At 30 dB every sampled trial decodes in round 1, yet d_hat does not
    # certify, so it is a sample and carries a nonzero error.
    cfg = default_config()
    cfg.snr_db = 30.0
    ds = build_figure(cfg, "fig11_tcm")
    harq = [ci for _, series, _, ci in ds.rows if series == Protocol.HARQ.value]
    assert len(harq) == len(cfg.n_g_grid) and all(ci > 0 for ci in harq)


# sha256 of each default-config CSV. At the default 40 dB HARQ's d_hat is 1
# exactly for every seed, so the three seeds share one set of digests.
DEFAULT_CSV_SHA256 = {
    "fig7_surface.csv": "0ac14da13942df444024629c6e41f75af36c6de982e78476ee8862302f816283",
    "fig9_ucc.csv": "c2d8997c6b014f04234f99ae9ec48d1b8023e4ce19c9930e20814e3a885cf0e0",
    "fig10_ucc.csv": "4714930c41413e117cf7ecabe011f6b6ae5819c97194461b67792068d4466b6a",
    "fig11_tcm.csv": "15ec9be9ee3c4eb99d5f1cb0f8364b4dcbd66d7fa77ae650dd01be7b98af941d",
    "fig12_ucc_snr_tasks.csv": "8d9d38b914cf4ad3ffebdd7d653f7791cc887a2a2a9bc2c6df63dfac059bec7b",
    "fig13_pfail.csv": "003077d2cc248d016ed0142a1ecf1a64edac9076a27aa38797030daf2b333f56",
}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_default_config_csv_digests(tmp_path, seed):
    config = tmp_path / "default.ini"
    config.write_text("")
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out), "--seed", str(seed)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == DEFAULT_CSV_SHA256


# sha256 of each CSV under `[channel] rate_bps = 50e3`, taken before fig9/fig10
# charged ReFlexUp the padded-slot optimum directly: at this rate the loss-free
# transfer overruns the optimum at 8 of fig10's 10 sizes, which the figures
# used to price through ReFlexUp's capped latency. Seeds 0-2 share one set.
INFEASIBLE_CONFIG = "[channel]\nrate_bps = 50e3\n"
INFEASIBLE_CSV_SHA256 = {
    "fig7_surface.csv": "0ac14da13942df444024629c6e41f75af36c6de982e78476ee8862302f816283",
    "fig9_ucc.csv": "760cac8e94233198dd2de39601d3688c47785a3ea197e2d834278c14402ed1e4",
    "fig10_ucc.csv": "4dd83c89d008e8b476ee8644ea8b02232757b0d5305a09564a563471a463cde9",
    "fig11_tcm.csv": "5f88657bdb2ebb959caaf0cb4a1dec3b6ddb66c65dc31b574b830f3c9571f8a0",
    "fig12_ucc_snr_tasks.csv": "8d9d38b914cf4ad3ffebdd7d653f7791cc887a2a2a9bc2c6df63dfac059bec7b",
    "fig13_pfail.csv": "003077d2cc248d016ed0142a1ecf1a64edac9076a27aa38797030daf2b333f56",
}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_infeasible_config_csv_digests(tmp_path, seed):
    config = tmp_path / "slow.ini"
    config.write_text(INFEASIBLE_CONFIG)
    out = tmp_path / "out"
    assert main(["run", str(config), "--out", str(out), "--seed", str(seed)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == INFEASIBLE_CSV_SHA256


def test_reflexup_is_charged_its_optimum_where_the_transfer_overruns_it():
    cfg = default_config()
    cfg.rate_bps = 50e3
    cec = cfg.cec()
    sizes = sorted(cfg.n_g_grid)
    lat = [reflexup_latency(cfg.shape(n), cfg.channel(), cec, cfg.t_cp_fig10) for n in sizes]
    assert sum(point.infeasible for point in lat) == 8
    u_star = ucc_case3_at_optimum(cfg.t_cp_fig10, cec)
    ds = build_figure(cfg, "fig10_ucc")
    assert ds.series(Protocol.REFLEXUP.value) == [(float(n), u_star) for n in sizes]


# One patch per figure sanity check, each of which breaks the shape it guards.
SANITY_BREAKS = {
    "fig7_surface": (
        "optimal_tcm_case3",
        lambda real: lambda t_cp, cec: 1.5 * real(t_cp, cec),
    ),
    "fig9_ucc": ("ucc_case3_at_optimum", lambda real: lambda t_cp, cec: 0.0),
    "fig11_tcm": ("srarq_latency", lambda real: lambda shape, chan: 1.0),
    "fig12_ucc_snr_tasks": (
        "ucc_case3_at_optimum",
        lambda real: lambda t_cp, cec: float(cec.n_tasks),
    ),
    "fig13_pfail": (
        "reflexup_pfail",
        lambda real: lambda shape, chan, t_vs, p_timeout: chan.snr_db / 100,
    ),
}


@pytest.mark.parametrize("tag", sorted(SANITY_BREAKS))
def test_figure_sanity_checks_fire(monkeypatch, tag):
    name, patch = SANITY_BREAKS[tag]
    monkeypatch.setattr(figures, name, patch(getattr(figures, name)))
    with pytest.raises(RuntimeError, match=tag.split("_")[0]):
        build_figure(default_config(), tag)


def test_cli_exits_2_when_a_sanity_check_fires(tmp_path, monkeypatch, capsys):
    name, patch = SANITY_BREAKS["fig11_tcm"]
    monkeypatch.setattr(figures, name, patch(getattr(figures, name)))
    config = tmp_path / "default.ini"
    config.write_text("")
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "fig11_tcm: fig11: series selective_repeat_arq is not strictly increasing" in err
    # The other five figures still build and are written.
    assert len(list((tmp_path / "out").iterdir())) == 5


# ----------------------------------------------- the one-pass series view


def _scan_series(ds, name):
    return [(x, y) for x, s, y, _ in ds.rows if s == name]


def _scan_names(ds):
    seen = {}
    for _, s, _, _ in ds.rows:
        seen.setdefault(s)
    return list(seen)


def _scan_summary(ds):
    lines = []
    for name in _scan_names(ds):
        pts = _scan_series(ds, name)
        ys = [y for _, y in pts]
        best_x = max(pts, key=lambda p: p[1])[0]
        lines.append(
            f"{ds.tag:22s} {name:22s} n={len(pts):3d} "
            f"min={min(ys):.6g} max={max(ys):.6g} argmax_x={best_x:.6g}"
        )
    return lines


def _scan_csv(ds):
    text = f"{ds.x_name},series,{ds.y_name},ci99\n"
    for x, series, y, ci in ds.rows:
        text += f"{x:.10g},{series},{y:.10g},{ci:.10g}\n"
    return text.encode("utf-8")


# A few x values recur across and within series; the rest are any float.
_X = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5, 1e-7, 3.0e5]), st.floats())
_ROWS = st.lists(
    st.tuples(_X, st.sampled_from(["harq", "reflexup", "tcp=0.5", "n_g=100", "a,b"]), st.floats(), st.floats()),
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(rows=_ROWS, sort=st.booleans())
def test_one_pass_view_matches_a_scan_per_series(rows, sort):
    ds = FigureDataset("fig_prop", "x", "y", rows)
    if sort:
        ds.sort()
    names = _scan_names(ds)
    assert ds.series_names() == names
    for name in [*names, "absent"]:
        assert ds.series(name) == _scan_series(ds, name)
    assert summarize(ds) == _scan_summary(ds)
    with tempfile.TemporaryDirectory() as out:
        with open(write_dataset(ds, out), "rb") as fh:
            assert fh.read() == _scan_csv(ds)
        assert os.listdir(out) == ["fig_prop.csv"]


def _first_non_finite(rows):
    return next((r for r in rows if not all(map(math.isfinite, (r[0], r[2], r[3])))), None)


def test_check_names_the_first_non_finite_row():
    rows = [(1.0, "a", 2.0, 0.1), (2.0, "a", math.nan, 0.1), (3.0, "b", 1.0, math.inf), (-math.inf, "b", 1.0, 0.0)]
    with pytest.raises(RuntimeError) as raised:
        FigureDataset("fig_x", "x", "y", rows).check()
    assert str(raised.value) == "fig_x: non-finite row (2.0, a, nan, 0.1)"
    # Finite values whose column sums overflow pass; so does an empty dataset.
    FigureDataset("fig_x", "x", "y", [(1e308, "a", 1e308, -1e308), (1e308, "b", 1e308, -1e308)]).check()
    FigureDataset("fig_x", "x", "y", []).check()


@settings(max_examples=150, deadline=None)
@given(rows=_ROWS)
def test_check_fails_exactly_on_a_non_finite_row(rows):
    ds = FigureDataset("fig_prop", "x", "y", rows)
    bad = _first_non_finite(rows)
    if bad is None:
        ds.check()
    else:
        with pytest.raises(RuntimeError) as raised:
            ds.check()
        assert str(raised.value) == f"fig_prop: non-finite row ({bad[0]}, {bad[1]}, {bad[2]}, {bad[3]})"
