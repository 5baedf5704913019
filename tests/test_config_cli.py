import argparse
import os
import re
import subprocess
import sys
from dataclasses import fields

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cecbench

from cecbench import cli
from cecbench.cli import main
from cecbench.config import (
    ConfigError,
    ExperimentConfig,
    FIGURE_TAGS,
    default_config,
    validate_config,
)
from cecbench.protocols import Protocol


def _write(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


MINIMAL = """
[experiment]
figures = fig13_pfail
"""


def test_minimal_config_applies_and_echoes_defaults(tmp_path):
    cfg = validate_config(_write(tmp_path, MINIMAL))
    assert cfg.figures == ("fig13_pfail",)
    assert cfg.bandwidth_hz == 20e6
    assert cfg.rate_bps == 200e3
    assert cfg.packet_bytes == 22
    assert cfg.p_timeout == 1e-4
    assert cfg.c0 == 1.5
    assert cfg.n_tasks == 100
    echoed = "\n".join(cfg.applied_defaults)
    assert "channel.bandwidth_hz = 20000000.0" in echoed
    assert "experiment.seed = 0" in echoed
    assert "experiment.figures" not in echoed  # provided, not defaulted


def test_default_config_lists_every_key():
    cfg = default_config()
    assert any(line.startswith("cec.c0") for line in cfg.applied_defaults)
    assert cfg.figures == FIGURE_TAGS


def test_unknown_key_rejected(tmp_path):
    path = _write(tmp_path, MINIMAL + "\n[channel]\nsnr_dbb = 12\n")
    with pytest.raises(ConfigError, match="unknown key channel.snr_dbb"):
        validate_config(path)


def test_unknown_section_rejected(tmp_path):
    path = _write(tmp_path, MINIMAL + "\n[chanel]\nsnr_db = 12\n")
    with pytest.raises(ConfigError, match=r"unknown section \[chanel\]"):
        validate_config(path)


def test_type_error_located_by_key_path(tmp_path):
    path = _write(tmp_path, MINIMAL + "\n[channel]\nbandwidth_hz = 0\n")
    with pytest.raises(ConfigError, match=r"\[channel\] bandwidth_hz"):
        validate_config(path)


def test_unknown_figure_tag_rejected(tmp_path):
    path = _write(tmp_path, "[experiment]\nfigures = fig99\n")
    with pytest.raises(ConfigError, match="unknown figure tag"):
        validate_config(path)


def test_empty_protocol_list_rejected(tmp_path):
    path = _write(tmp_path, MINIMAL + "\n[experiment]\nprotocols =\n", name="p.ini")
    with pytest.raises(ConfigError):
        validate_config(path)


def test_unknown_protocol_rejected(tmp_path):
    path = _write(tmp_path, "[experiment]\nfigures = fig13_pfail\nprotocols = carrier_pigeon\n")
    with pytest.raises(ConfigError, match="unknown protocol"):
        validate_config(path)


def test_protocols_parse(tmp_path):
    path = _write(tmp_path, "[experiment]\nfigures = fig13_pfail\nprotocols = harq, reflexup\n")
    cfg = validate_config(path)
    assert cfg.protocols == (Protocol.HARQ, Protocol.REFLEXUP)


def test_out_of_band_snr_warns_but_parses(tmp_path):
    path = _write(tmp_path, MINIMAL + "\n[channel]\nsnr_db = -5\n")
    with pytest.warns(UserWarning, match="outside the evaluated"):
        cfg = validate_config(path)
    assert cfg.snr_db == -5.0


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        validate_config(str(tmp_path / "nope.ini"))


def test_multiple_errors_all_reported(tmp_path):
    path = _write(
        tmp_path,
        "[experiment]\nfigures = fig13_pfail\ntrials = -3\n[channel]\nrate_bps = zero\n",
    )
    with pytest.raises(ConfigError) as err:
        validate_config(path)
    message = str(err.value)
    assert "trials" in message and "rate_bps" in message


# ------------------------------------------------------------------ CLI runs


def test_cli_run_writes_figures(tmp_path, capsys):
    config = _write(
        tmp_path,
        "[experiment]\nfigures = fig13_pfail fig12_ucc_snr_tasks\nseed = 7\n",
    )
    out_dir = str(tmp_path / "out")
    assert main(["run", config, "--out", out_dir]) == 0
    captured = capsys.readouterr().out
    assert "default applied:" in captured
    assert "fig13_pfail" in captured
    assert os.path.exists(os.path.join(out_dir, "fig13_pfail.csv"))
    assert os.path.exists(os.path.join(out_dir, "fig12_ucc_snr_tasks.csv"))


def test_cli_figure_flag_overrides_config(tmp_path):
    config = _write(tmp_path, "[experiment]\nfigures = fig13_pfail fig7_surface\n")
    out_dir = str(tmp_path / "only")
    assert main(["run", config, "--out", out_dir, "--figure", "fig7_surface"]) == 0
    assert os.listdir(out_dir) == ["fig7_surface.csv"]


def test_cli_validation_error_exit_code(tmp_path, capsys):
    config = _write(tmp_path, "[channel]\nbandwidth_hz = 0\n")
    assert main(["run", config]) == 1
    assert "bandwidth_hz" in capsys.readouterr().err


def test_cli_runtime_error_exit_code(tmp_path, capsys):
    config = _write(tmp_path, MINIMAL)
    blocker = tmp_path / "blocked"
    blocker.write_text("a file where the output directory should go")
    assert main(["run", config, "--out", str(blocker)]) == 2
    assert "fig13_pfail" in capsys.readouterr().err


def test_cli_reruns_are_byte_identical(tmp_path):
    config = _write(
        tmp_path,
        "[experiment]\nfigures = fig13_pfail fig7_surface\nseed = 3\ntrials = 20000\n",
    )
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", config, "--out", str(out_a)]) == 0
    assert main(["run", config, "--out", str(out_b)]) == 0
    for name in os.listdir(out_a):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_cli_builds_its_parser_once_per_process(tmp_path, monkeypatch):
    # Parsing leaves the parser unchanged, so every main call reuses the first one's.
    built = []
    real = argparse.ArgumentParser.__init__
    monkeypatch.setattr(
        argparse.ArgumentParser, "__init__", lambda self, *a, **k: built.append(self) or real(self, *a, **k)
    )
    cli._parser.cache_clear()
    config = _write(tmp_path, MINIMAL)
    for out in ("a", "b", "c"):
        assert main(["run", config, "--out", str(tmp_path / out)]) == 0
    # The parser and its `run` subparser.
    assert len(built) == 2
    with pytest.raises(SystemExit):
        main(["run"])
    assert main(["run", config, "--out", str(tmp_path / "d"), "--seed", "4"]) == 0
    assert len(built) == 2


def test_cli_seed_and_trials_override(tmp_path, capsys):
    config = _write(tmp_path, MINIMAL)
    out_dir = str(tmp_path / "s")
    assert main(["run", config, "--seed", "99", "--trials", "15000", "--out", out_dir]) == 0
    echoed = capsys.readouterr().out
    assert "experiment.seed" not in echoed and "experiment.trials" not in echoed
    assert "experiment.out_dir" not in echoed
    assert main(["run", config, "--trials", "0", "--out", out_dir]) == 1


@pytest.mark.parametrize(
    "config_text, flags, key",
    [
        ("[experiment]\nfigures = fig13_pfail\ntrials = 500\n", [], "trials"),
        (MINIMAL + "[cec]\nc0 = nan\n", [], "c0"),
        ("[experiment]\nfigures = fig13_pfail\nseed = -3\n", [], "seed"),
        (MINIMAL + "[channel]\nsnr_db = inf\n", [], "snr_db"),
        (MINIMAL + "[sweep]\nsnr_grid_db = 10 nan 30\n", [], "snr_grid_db"),
        ("[experiment]\nfigures = fig9_ucc\n[channel]\nsnr_db = 4000\n", [], "snr_db"),
        ("[experiment]\nfigures = fig9_ucc\n[channel]\nsnr_db = -4000\n", [], "snr_db"),
        ("[experiment]\nfigures = fig13_pfail\n[sweep]\nsnr_grid_db = 10 5000\n", [], "snr_grid_db"),
        ("[experiment]\nfigures = fig12_ucc_snr_tasks\n[cec]\nn_tasks = 250\n", [], "n_tasks"),
        (MINIMAL + "[sweep]\nfig13_n_g = 1\n", [], "fig13_n_g"),
        (MINIMAL, ["--trials", "500"], "trials"),
        (MINIMAL, ["--seed", "-3"], "seed"),
        (MINIMAL, ["--seed", "x"], "seed"),
        ("[experiment]\nfigures = fig9_ucc\n[cec]\nc0 = 0\n", [], "c0"),
        (MINIMAL + "[cec]\nepsilon = 0\n", [], "unknown key cec.epsilon"),
        (MINIMAL + "[protocol]\np_timeout = 1.5\n", [], "p_timeout"),
        ("[experiment]\nfigures = fig11_tcm\n[sweep]\nn_g_grid = 50 50\n", [], "n_g_grid"),
        (MINIMAL + "[sweep]\nfig13_n_g = 100 100\n", [], "fig13_n_g"),
        ("[experiment]\nfigures = fig13_pfail\nscenario = x\n", [], "scenario"),
        (MINIMAL, ["--figure", "fig99"], "figures"),
        # An empty path names no directory: every figure failed to write, exit 2.
        (MINIMAL + "out_dir =\n", [], "[experiment] out_dir: expected a non-empty path"),
        (MINIMAL, ["--out", ""], "[experiment] out_dir: expected a non-empty path"),
        # Near the ends of the float range, Occupy CoW's windows overflow or
        # underflow and fig7's grids round to 0: each failed in its figure.
        ("[experiment]\nfigures = fig11_tcm\n[channel]\nrate_bps = 1.1125369292536007e-308\n", [], "rate_bps"),
        ("[experiment]\nfigures = fig9_ucc\n[protocol]\noc_t2_scale = 5e-324\n", [], "oc_t2_scale"),
        ("[experiment]\nfigures = fig7_surface\n[sweep]\nfig7_t_cm_max = 5e-324\n", [], "fig7_t_cm_max"),
        ("[experiment]\nfigures = fig7_surface\n[sweep]\nfig7_t_cp_max = 5e-324\n", [], "fig7_t_cp_max"),
        # fig7's surface underflows to 0 or to tied subnormals, so its argmax
        # is the first grid point; a baseline's efficiency overflows to nan,
        # or its uplink time to inf. Each exited 2 from its figure.
        ("[experiment]\nfigures = fig7_surface\n[cec]\nc = 5e-324\n", [], "[cec] c"),
        ("[experiment]\nfigures = fig7_surface\n[cec]\nc = 1e-320\n", [], "[cec] c"),
        ("[experiment]\nfigures = fig9_ucc\n[channel]\nrate_bps = 1e-300\n[sweep]\nt_cp_fig9 = 1000\n", [], "[sweep] t_cp_fig9"),
        (
            "[experiment]\nfigures = fig11_tcm\n[channel]\nrate_bps = 1e-303\n[protocol]\noc_t1_scale = 1\noc_t2_scale = 1\n",
            [],
            "[channel] rate_bps",
        ),
    ],
)
def test_cli_rejects_unrunnable_config(tmp_path, capsys, config_text, flags, key):
    config = _write(tmp_path, config_text)
    out_dir = tmp_path / "out"
    assert main(["run", config, "--out", str(out_dir), *flags]) == 1
    assert key in capsys.readouterr().err
    assert not out_dir.exists()


# 2^(R/W) overflows a double in each: outage is certain, and every figure builds.
@pytest.mark.parametrize(
    "section, line",
    [
        ("channel", "rate_bps = 1e12"),
        ("channel", "bandwidth_hz = 1e-300"),
        ("protocol", "reflexup_t_vs = 1e-300"),
        ("protocol", "packet_bytes = 100000000"),
        ("protocol", "oc_t1_scale = 1e-300"),
        ("protocol", "oc_t2_scale = 1e-300"),
    ],
)
def test_cli_runs_configs_whose_outage_overflows(tmp_path, section, line):
    config = _write(tmp_path, f"[{section}]\n{line}\n")
    out_dir = tmp_path / "out"
    assert main(["run", config, "--out", str(out_dir)]) == 0
    assert sorted(os.listdir(out_dir)) == sorted(f"{tag}.csv" for tag in FIGURE_TAGS)


def _text(values):
    return values.map(repr)


def _text_list(values):
    return st.lists(values, min_size=1, max_size=4).map(lambda vs: " ".join(map(repr, vs)))


# Positive values span the float range: 1e-308 to 1e308 on a log scale, and
# the subnormals, 5e-324 to 2.2e-308. The others are 0 or negative, which the
# config boundary must reject. A product that overflows or underflows inside
# a figure exits 2, so any config that does is a bug of the config boundary.
_SCALE = st.one_of(st.floats(-308.0, 308.0).map(lambda e: 10.0**e), st.floats(5e-324, 2.2e-308))
_SCALE_OR_NOT = st.one_of(_SCALE, st.floats(-1e3, 0.0))
_COUNT = st.integers(-2, 1000)
_KEYS = {
    ("experiment", "seed"): _text(st.integers(-1, 2**64)),
    ("experiment", "protocols"): st.lists(
        st.sampled_from([p.value for p in Protocol]), min_size=1, max_size=4, unique=True
    ).map(" ".join),
    ("channel", "bandwidth_hz"): _text(_SCALE_OR_NOT),
    ("channel", "rate_bps"): _text(_SCALE_OR_NOT),
    ("channel", "snr_db"): _text(st.floats(-4000.0, 4000.0)),
    ("topology", "relay_sensor_ratio"): _text(_SCALE_OR_NOT),
    ("protocol", "packet_bytes"): _text(st.integers(-1, 10**6)),
    ("protocol", "p_timeout"): _text(st.floats(-0.5, 1.5)),
    ("protocol", "harq_max_rounds"): _text(st.integers(0, 16)),
    ("protocol", "harq_diversity"): _text(st.integers(0, 8)),
    ("protocol", "reflexup_t_vs"): _text(_SCALE_OR_NOT),
    ("protocol", "oc_t1_scale"): _text(_SCALE_OR_NOT),
    ("protocol", "oc_t2_scale"): _text(_SCALE_OR_NOT),
    ("cec", "n_tasks"): _text(_COUNT),
    ("cec", "k_rbs"): _text(_COUNT),
    ("cec", "c"): _text(_SCALE_OR_NOT),
    ("cec", "c0"): _text(_SCALE_OR_NOT),
    ("sweep", "snr_grid_db"): _text_list(st.floats(-4000.0, 4000.0)),
    ("sweep", "n_g_grid"): _text_list(_COUNT),
    ("sweep", "task_grid"): _text_list(_COUNT),
    ("sweep", "t_cp_fig9"): _text(_SCALE_OR_NOT),
    ("sweep", "t_cp_fig10"): _text(_SCALE_OR_NOT),
    ("sweep", "t_cp_fig11"): _text(_SCALE_OR_NOT),
    ("sweep", "t_cp_fig12"): _text(_SCALE_OR_NOT),
    ("sweep", "fig12_n_g"): _text(_COUNT),
    ("sweep", "fig13_n_g"): _text_list(_COUNT),
    ("sweep", "fig7_t_cm_max"): _text(_SCALE_OR_NOT),
    ("sweep", "fig7_t_cp_max"): _text(_SCALE_OR_NOT),
    ("sweep", "fig7_t_cm_points"): _text(st.integers(0, 500)),
    ("sweep", "fig7_t_cp_points"): _text(st.integers(0, 20)),
}


@st.composite
def _configs(draw):
    """Config text setting 1-8 keys drawn over wide ranges, with 10,000 trials."""
    keys = draw(st.lists(st.sampled_from(sorted(_KEYS)), min_size=1, max_size=8, unique=True))
    sections: dict[str, list[str]] = {"experiment": ["trials = 10000"]}
    for section, key in keys:
        sections.setdefault(section, []).append(f"{key} = {draw(_KEYS[section, key])}")
    return "".join(f"[{name}]\n" + "".join(f"{line}\n" for line in lines) for name, lines in sections.items())


@settings(max_examples=200, deadline=None)
@given(text=_configs())
# Sizes 400 and 450 both split into 8 sensors: fig11's latencies tie there.
@example(text="[experiment]\ntrials = 10000\n[topology]\nrelay_sensor_ratio = 52.0\n")
# Near the ends of the float range: fig7's surface underflows, fig9's Occupy CoW efficiency overflows.
@example(text="[experiment]\ntrials = 10000\n[cec]\nc = 5e-324\n")
@example(text="[experiment]\ntrials = 10000\n[channel]\nrate_bps = 1e-300\n[sweep]\nt_cp_fig9 = 1000\n")
def test_every_config_exits_1_or_builds_every_figure(tmp_path_factory, text):
    # Exit 2 is for runtime faults only: a config the sweeps cannot run must
    # fail validation, and one that validates must build all six figures.
    tmp = tmp_path_factory.mktemp("cfg")
    config, out_dir = _write(tmp, text), tmp / "out"
    code = main(["run", config, "--out", str(out_dir)])
    assert code in (0, 1), text
    if code == 0:
        assert sorted(os.listdir(out_dir)) == sorted(f"{tag}.csv" for tag in FIGURE_TAGS), text


def test_readme_key_table_matches_the_schema():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as fh:
        rows = re.search(r"^\| section +\| keys \|\n\|[-|]+\|\n((?:\|.*\n)+)", fh.read(), re.M)
    table = {}
    for row in rows.group(1).splitlines():
        section, keys = row.strip("|").split("|")
        table[section.strip().strip("`")] = re.findall(r"`([^`]+)`", keys)
    schema: dict[str, list[str]] = {}
    for f in fields(ExperimentConfig):
        if f.metadata:
            schema.setdefault(f.metadata["section"], []).append(f.name)
    assert table == schema


# Runs with every scipy import refused: the package needs numpy only.
_WITHOUT_SCIPY = """
import os, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, RefuseScipy())
import cecbench
print(any(m.split(".")[0] == "scipy" for m in sys.modules))
from cecbench import cli, fdd

tmp = sys.argv[1]
train, test = fdd.generate_synthetic_te(300, 30, fdd.MeanShift((0, 3), 8.0), seed=5, n_vars=8)
model = fdd.fit_pca(train, n_components=3)
results = fdd.score_stream(model, test)
flagged = [s for s, r in zip(test, results) if r.fault_flag]
assert flagged and all(fdd.residual_contributions(model, s) for s in flagged)
fdd.write_detections(results, os.path.join(tmp, "detections.csv"))
cfg = os.path.join(tmp, "empty.ini")
open(cfg, "w").close()
print(cli.main(["run", cfg, "--out", os.path.join(tmp, "results")]))
"""


def test_import_does_not_load_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(cecbench.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    lines = out.stdout.splitlines()
    assert lines[0] == "False" and lines[-1] == "0", out.stdout
    assert len((tmp_path / "detections.csv").read_text().splitlines()) == 331
    assert sorted(os.listdir(tmp_path / "results")) == sorted(f"{tag}.csv" for tag in FIGURE_TAGS)
